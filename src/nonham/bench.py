"""End-to-end pipeline benchmark: families of graphs, CSV rows, growth fit.

`run_pipeline` is the one copy of the stage sequence: refute, translate,
check, replay the tree document, and compress. For each non-Hamiltonian
graph it runs once, every artifact is re-checked from its serialized form,
and one CSV row is emitted. Dag verification verdicts are recorded on the
row rather than aborting the run: a cleansed dag the verifier rejects is an
experimental outcome of the compression and the sizes are still the point.
The growth summary fits log(dag weight) against log(translated-goal
weight) by least squares and reports the slope with a 95% confidence
interval; a bounded slope as sizes grow is the point of the compression.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from random import Random

from .builder import BuildReport, build_refutation, builder_limit, check_builder_cap
from .dagproof import Compression, compress_and_verify
from .errors import NonhamError
from .formulas import weight
from .graphs import Graph, is_hamiltonian, random_graph
from .implicational import translate_formula, translate_proof
from .prooftree import Metrics, ProofTree, check_tree, dumps_proof, loads_proof

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
    # the verdict rides along but stays out of the pinned CSV schema
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


@dataclass
class PipelineResult:
    """The artifacts of one graph's run: the refutation's build report, its
    translation `proof` with `metrics`, `text`, the tree document the
    metrics were replayed from, and the compression of the translation."""

    report: BuildReport
    proof: ProofTree
    metrics: Metrics
    text: str
    compression: Compression


def run_pipeline(g: Graph, mode: str = "auto", cap: int | None = None) -> PipelineResult:
    """Refute `g`, translate the refutation, check that the translation is
    closed and replays from its serialized bytes, then compress it.

    Tree-side failures raise NonhamError (they would mean a builder bug);
    the dag verifier's verdict on the cleansed output is recorded on the
    compression, not raised.
    """
    report = build_refutation(g, mode=mode, cap=cap)
    proof = translate_proof(report.proof, translate_formula(report.proof.conclusion))
    metrics = check_tree(proof)
    if metrics.open_assumptions:
        raise NonhamError("translated proof is not closed")
    text = dumps_proof(proof)
    if check_tree(loads_proof(text)) != metrics:
        raise NonhamError("tree proof does not replay from its serialization")
    return PipelineResult(report, proof, metrics, text, compress_and_verify(proof))


def pipeline_row(g: Graph, mode: str = "auto", cap: int | None = None) -> BenchRow:
    """`run_pipeline` on one graph, reported as sizes plus the dag verdict,
    with the whole run's wall time."""
    t0 = time.perf_counter()
    r = run_pipeline(g, mode=mode, cap=cap)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    m, c = r.metrics, r.compression
    return BenchRow(
        n=g.n,
        graph_id=g.graph_id,
        rho_weight=weight(r.proof.conclusion),
        tree_height=m.height,
        tree_weight=m.weight,
        tree_distinct_weight=m.distinct_formula_weight,
        dag_weight=c.weight,
        dag_height=c.height,
        compression_ratio=m.weight / c.weight,
        wall_time_ms=elapsed_ms,
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
    # imported here: scipy.stats costs about a second at start-up and numpy
    # about 0.1 s, and nothing else in the package needs either
    import numpy as np
    from scipy import stats

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
              mode: str = "auto", cap: int | None = None) -> list[BenchRow]:
    """Rows for an ascending sequence of n, such as a range, in (n, graph)
    order. The n above the builder cap form a suffix of the sequence; one
    line to stderr names its first and last n, which are skipped before any
    graph is drawn, and a graph whose artifacts cannot be built at all is
    logged and skipped too; verification verdicts on built artifacts live
    on the rows themselves. An empty n range or a count below 1 raises
    ValueError, and a range with no n under the builder cap raises the
    first n's CapExceededError, before any work."""
    if not n_values:
        raise ValueError("empty n range")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    check_builder_cap(n_values[0], mode, cap)
    limit = builder_limit(mode, cap)
    k = bisect_right(n_values, limit)
    if k < len(n_values):
        print(f"bench: n={n_values[k]}..{n_values[-1]} skipped: above the builder cap {limit}",
              file=sys.stderr)
    rows: list[BenchRow] = []
    for n, g in family_graphs(family, n_values[:k], seed=seed, count=count):
        try:
            rows.append(pipeline_row(g, mode=mode, cap=cap))
        except NonhamError as exc:
            print(f"bench: n={n} graph_id={g.graph_id}: {exc}", file=sys.stderr)
    return rows


def rows_to_csv(rows: list[BenchRow], timing: bool = True) -> str:
    lines = [",".join(CSV_FIELDS)]
    lines.extend(",".join(r.csv_values(timing)) for r in rows)
    return "\n".join(lines) + "\n"
