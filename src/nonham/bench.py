"""End-to-end pipeline benchmark: families of graphs, CSV rows, growth fit.

For each non-Hamiltonian graph the full pipeline runs (encode, refute,
translate, compress, cleanse), every artifact is re-checked from its
serialized form, and one CSV row is emitted. Dag verification verdicts are
recorded on the row rather than aborting the run: a cleansed dag the
verifier rejects, or a separation node no source thread survives, is an
experimental outcome of the compression and the sizes are still the point.
The growth summary fits log(dag weight) against log(translated-goal
weight) by least squares and reports the slope with a 95% confidence
interval; a bounded slope as sizes grow is the point of the compression.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from random import Random

import numpy as np

from .builder import build_refutation, check_builder_cap
from .dagproof import compress_and_verify
from .errors import CapExceededError, NonhamError
from .formulas import weight
from .graphs import Graph, is_hamiltonian, random_graph
from .implicational import translate_formula, translate_proof
from .prooftree import check_tree, dumps_proof, loads_proof

CSV_FIELDS = (
    "n",
    "graph_id",
    "rho_weight",
    "tree_height",
    "tree_weight",
    "tree_distinct_weight",
    "dag_weight",
    "dag_height",
    "compression_ratio",
    "wall_time_ms",
)

FAMILIES = ("empty", "chain", "random")


@dataclass
class BenchRow:
    n: int
    graph_id: int
    rho_weight: int
    tree_height: int
    tree_weight: int
    tree_distinct_weight: int
    dag_weight: int
    dag_height: int
    compression_ratio: float
    wall_time_ms: int
    # verdicts ride along but stay out of the pinned CSV schema
    incoherent_s: int = 0
    dag_verified: bool = False

    def csv_values(self, timing: bool = True) -> list[str]:
        return [
            str(self.n),
            str(self.graph_id),
            str(self.rho_weight),
            str(self.tree_height),
            str(self.tree_weight),
            str(self.tree_distinct_weight),
            str(self.dag_weight),
            str(self.dag_height),
            f"{self.compression_ratio:.6f}",
            str(self.wall_time_ms if timing else 0),
        ]


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def chain_graph(n: int) -> Graph:
    """The path 1 -> 2 -> ... -> n with its last edge removed."""
    return Graph(n, frozenset((i, i + 1) for i in range(1, n - 1)))


def family_graphs(family: str, n_values, seed: int = 0, count: int = 1) -> list[tuple[int, Graph]]:
    """Deterministic (n, graph) list for a named family.

    `random` draws edge-probability-0.3 graphs and rejection-samples until
    non-Hamiltonian, `count` graphs per n, all from one seeded stream. Every
    family needs n >= 2: each graph on one vertex is Hamiltonian, so the
    `random` draw would never end.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if min(n_values, default=2) < 2:
        raise ValueError(f"family {family!r} needs n >= 2")
    out: list[tuple[int, Graph]] = []
    if family == "random":
        rng = Random(seed)
        for n in n_values:
            got = 0
            while got < count:
                g = random_graph(rng, n, edge_prob=0.3)
                if is_hamiltonian(g) is None:
                    out.append((n, g))
                    got += 1
        return out
    make = empty_graph if family == "empty" else chain_graph
    for n in n_values:
        out.append((n, make(n)))
    return out


def pipeline_row(g: Graph, mode: str = "auto", cap: int | None = None) -> BenchRow:
    """Run the whole pipeline on one graph, re-check every artifact from
    its serialized bytes, and report sizes plus verification verdicts.

    Tree-side failures abort the row (they would mean a builder bug); the
    dag verifier's verdict on the cleansed output is recorded, not raised.
    """
    t0 = time.perf_counter()
    report = build_refutation(g, mode=mode, cap=cap)
    translation = translate_formula(report.proof.conclusion)
    imp_proof = translate_proof(report.proof, translation)
    tree_metrics = check_tree(imp_proof)
    if tree_metrics.open_assumptions:
        raise NonhamError("translated proof is not closed")

    if check_tree(loads_proof(dumps_proof(imp_proof))) != tree_metrics:
        raise NonhamError("tree proof does not replay from its serialization")
    c = compress_and_verify(imp_proof)

    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return BenchRow(
        n=g.n,
        graph_id=g.graph_id,
        rho_weight=weight(imp_proof.conclusion),
        tree_height=tree_metrics.height,
        tree_weight=tree_metrics.weight,
        tree_distinct_weight=tree_metrics.distinct_formula_weight,
        dag_weight=c.weight,
        dag_height=c.height,
        compression_ratio=tree_metrics.weight / c.weight,
        wall_time_ms=elapsed_ms,
        incoherent_s=c.incoherent,
        dag_verified=c.verified,
    )


@dataclass
class GrowthFit:
    slope: float
    ci_low: float
    ci_high: float
    points: int

    def summary(self) -> str:
        return (f"fitted exponent {self.slope:.3f} "
                f"(95% CI {self.ci_low:.3f}..{self.ci_high:.3f}, {self.points} points)")


def fit_exponent(xs, ys) -> GrowthFit:
    """Least-squares slope of log(y) on log(x) with a 95% t-interval."""
    from scipy import stats  # imported here: it costs about a second at startup

    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    m = x.size
    if m < 3:
        raise ValueError("need at least three points to fit a slope with a CI")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values equal")
    slope = float(xc @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = m - 2
    se = float(np.sqrt((resid @ resid) / dof / sxx))
    tq = float(stats.t.ppf(0.975, dof))
    return GrowthFit(slope=slope, ci_low=slope - tq * se,
                     ci_high=slope + tq * se, points=m)


def fit_rows(rows: list[BenchRow]) -> GrowthFit | None:
    distinct_x = {r.rho_weight for r in rows}
    if len(rows) < 3 or len(distinct_x) < 2:
        return None
    return fit_exponent([r.rho_weight for r in rows], [r.dag_weight for r in rows])


def run_bench(family: str, n_values, seed: int = 0, count: int = 1,
              mode: str = "auto", cap: int | None = None, log=None) -> list[BenchRow]:
    """Rows for a family, in (n, graph) order. An n above the builder cap
    is reported to `log` and skipped before any graph is drawn, and so is a
    graph whose artifacts cannot be built at all; verification verdicts on
    built artifacts live on the rows themselves. An empty n range or a
    count below 1 raises ValueError, and a range with no n under the
    builder cap raises the first n's CapExceededError, before any work."""
    if not n_values:
        raise ValueError("empty n range")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    log = log if log is not None else sys.stderr
    buildable, refused = [], []
    for n in n_values:
        try:
            check_builder_cap(n, mode, cap)
        except CapExceededError as exc:
            refused.append((n, exc))
        else:
            buildable.append(n)
    if not buildable:
        raise refused[0][1]
    for n, exc in refused:
        print(f"bench: n={n}: {exc}", file=log)
    rows: list[BenchRow] = []
    for n, g in family_graphs(family, buildable, seed=seed, count=count):
        try:
            rows.append(pipeline_row(g, mode=mode, cap=cap))
        except NonhamError as exc:
            print(f"bench: n={n} graph_id={g.graph_id}: {exc}", file=log)
    return rows


def verdict_summary(rows: list[BenchRow]) -> str:
    """One line counting dag verdicts and coherence failures over the rows."""
    total = len(rows)
    verified = sum(1 for r in rows if r.dag_verified)
    coherent = sum(1 for r in rows if r.incoherent_s == 0)
    return (f"dag verdicts: {verified}/{total} verified, "
            f"{coherent}/{total} with a coherent collapse choice")


def rows_to_csv(rows: list[BenchRow], timing: bool = True) -> str:
    lines = [",".join(CSV_FIELDS)]
    lines.extend(",".join(r.csv_values(timing)) for r in rows)
    return "\n".join(lines) + "\n"
