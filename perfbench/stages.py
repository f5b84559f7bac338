"""Workload inputs and the stage sequences the benchmark times.

Every stage is a call into one public function of `nonham`, wrapped in a
span when the pass is traced. Counts, artifact digests and correctness
checks are taken after a graph's timed calls, so they never add to its
time. `prove_graph` with `round_trip=True` mirrors `bench.pipeline_row`
call for call; `test_stages.py` keeps the two in step.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from random import Random

from nonham.bench import chain_graph, empty_graph
from nonham.builder import build_refutation
from nonham.dagproof import (
    SEP,
    cleanse,
    coherence_failures,
    compress_horizontal,
    dag_height,
    dumps_dag,
    loads_dag,
    verify_dag,
)
from nonham.encoding import encode_graph, satisfiable
from nonham.errors import OpenAssumptionsError
from nonham.formulas import weight
from nonham.graphs import enumerate_graphs, is_hamiltonian, random_graph
from nonham.implicational import translate_formula, translate_proof, used_axioms
from nonham.kernels import compile_program
from nonham.prooftree import IMP_INTRO, check_tree, dumps_proof, iter_nodes, loads_proof

SWEEP_SAMPLE = 100
# Per-graph oracle cost is bimodal: a non-Hamiltonian graph scans all 7^7
# rows, a Hamiltonian one stops at its first witness. A fixed mix keeps the
# median on the full-scan mode whatever the seed. The graphs run densest
# first: an encoding loses a fixed number of nodes per edge, so each scan
# then asks for at least as large a buffer as the one before, and the
# allocator's peak (one such buffer freed but held, the next one new) no
# longer depends on the order the seed drew the graphs in.
ORACLE_NONHAM = 12
ORACLE_HAM = 4
ORACLE_EDGE_PROBS = (0.2, 0.3, 0.5)


class BenchFailure(Exception):
    """A correctness check of the benchmark failed on one graph."""


class Tracer:
    """Spans kept in memory: name, trace id (the graph), start, end, parent.

    With tracing off, `span` times nothing and records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.trace = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "trace": self.trace, "start": time.perf_counter(),
               "end": None, "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[i]
    return out


def make_inputs(workload: str, seed: int) -> list:
    """The graphs one pass runs, in order; the same seed gives the same list."""
    if workload == "prove-large":
        return [chain_graph(7), empty_graph(8)]
    rng = Random(seed)
    if workload == "sweep-n4":
        pool = [g for g in enumerate_graphs(4) if is_hamiltonian(g) is None]
        return sorted(rng.sample(pool, SWEEP_SAMPLE), key=lambda g: g.graph_id)
    if workload == "oracle-n7":
        want = {False: ORACLE_NONHAM, True: ORACLE_HAM}
        seen, out = set(), []
        while any(want.values()):
            g = random_graph(rng, 7, rng.choice(ORACLE_EDGE_PROBS))
            ham = is_hamiltonian(g) is not None
            if want[ham] and g.graph_id not in seen:
                want[ham] -= 1
                seen.add(g.graph_id)
                out.append(g)
        return sorted(out, key=lambda g: (-len(g.edges), g.graph_id))
    raise ValueError(f"unknown workload {workload!r}")


def prove_graph(g, tr: Tracer, mode: str, cap: int | None, round_trip: bool) -> dict:
    """Refute one graph and compress the refutation, in `pipeline_row` order.

    With `round_trip`, both artifacts are serialized and re-read inside the
    timed section, as `pipeline_row` does. Returns the live artifacts for
    `prove_record`, plus the row fields `pipeline_row` reports.
    """
    with tr.span("builder.build_refutation"):
        report = build_refutation(g, mode=mode, cap=cap)
    with tr.span("implicational.translate"):
        translation = translate_formula(report.proof.conclusion)
        imp_proof = translate_proof(report.proof, translation)
    with tr.span("prooftree.check_tree"):
        tree_metrics = check_tree(imp_proof)
    if tree_metrics.open_assumptions:
        raise BenchFailure("translated proof is not closed")
    with tr.span("dagproof.compress"):
        dag, origin = compress_horizontal(imp_proof)
    with tr.span("dagproof.coherence"):
        incoherent = len(coherence_failures(dag, origin))
    with tr.span("dagproof.cleanse"):
        star = cleanse(dag, origin, source=imp_proof, strict=False)
    proof_text = dag_text = None
    final = star
    if round_trip:
        with tr.span("prooftree.dumps"):
            proof_text = dumps_proof(imp_proof)
        with tr.span("prooftree.loads"):
            reloaded_tree = loads_proof(proof_text)
        with tr.span("prooftree.check_tree"):
            replay_metrics = check_tree(reloaded_tree)
        if replay_metrics != tree_metrics:
            raise BenchFailure("tree proof does not replay from its serialization")
        with tr.span("dagproof.dumps"):
            dag_text = dumps_dag(star)
        with tr.span("dagproof.loads"):
            final = loads_dag(dag_text)
    if final.conclusion is not imp_proof.conclusion:
        raise BenchFailure("dag conclusion drifted from the translated goal")
    try:
        with tr.span("dagproof.verify"):
            checked = verify_dag(final)
        dag_w, dag_h, verified = checked.weight, checked.height, True
    except OpenAssumptionsError:
        # criterion 5's expected verdict on a cleansed dag, not a failure
        dag_w = sum(node.formula.weight for node in final.nodes)
        dag_h = dag_height(final)
        verified = False
    return {
        "report": report, "translation": translation, "imp_proof": imp_proof,
        "dag": dag, "origin": origin, "star": star, "incoherent": incoherent,
        "proof_text": proof_text, "dag_text": dag_text, "verified": verified,
        "row": {
            "rho_weight": weight(imp_proof.conclusion),
            "tree_weight": tree_metrics.weight,
            "tree_distinct_weight": tree_metrics.distinct_formula_weight,
            "dag_weight": dag_w,
            "dag_height": dag_h,
            "compression_ratio": tree_metrics.weight / dag_w,
        },
    }


def _artifact(text: str) -> dict:
    """Size and SHA-256 of a serialized artifact, to compare runs byte for byte."""
    data = text.encode("utf-8")
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def prove_record(out: dict) -> dict:
    """Counts, artifact sizes and digests of one proved graph."""
    report, translation, imp_proof = out["report"], out["translation"], out["imp_proof"]
    spine_w, node = 0, imp_proof
    while node.rule == IMP_INTRO and translation.is_axiom(node.discharge[0]):
        spine_w += node.conclusion.weight
        node = node.premises[0]
    counts = {
        "builder.leaf_count": report.leaf_count,
        "builder.proof_nodes": sum(1 for _ in iter_nodes(report.proof)),
        "implicational.axioms_used": len(used_axioms(report.proof, translation)),
        "implicational.spine_weight": spine_w,
        "prooftree.tree_weight": out["row"]["tree_weight"],
        "prooftree.distinct_formulas": len({p.conclusion for p in iter_nodes(imp_proof)}),
        "dagproof.occurrences": len(out["origin"]),
        "dagproof.nodes": len(out["dag"].nodes),
        "dagproof.separation_nodes": sum(1 for d in out["dag"].nodes if d.rule == SEP),
        "dagproof.incoherent": out["incoherent"],
        "dagproof.verified": int(out["verified"]),
    }
    artifacts = {}
    if out["proof_text"] is not None:
        artifacts = {"proof": _artifact(out["proof_text"]), "dag": _artifact(out["dag_text"])}
    return {"counts": counts, "artifacts": artifacts, "ratio": out["row"]["compression_ratio"]}


def decide_graph(g, tr: Tracer) -> dict:
    """Decide one graph by path search and by the encoding's SAT scan."""
    with tr.span("graphs.is_hamiltonian"):
        witness = is_hamiltonian(g)
    with tr.span("encoding.satisfiable"):
        sat = satisfiable(g)
    return {"hamiltonian": witness is not None, "sat": sat}


def decide_record(g) -> dict:
    """Counts and the encoding's compression ratio for one decided graph.

    The encoding's own compression is its tree weight over the node count
    of its compiled program, which shares equal subformulas.
    """
    formula = encode_graph(g).formula
    program = compile_program(formula)
    return {"counts": {"kernels.program_nodes": program.node_count}, "artifacts": {},
            "ratio": weight(formula) / program.node_count}


def run_graph(workload: str, g, tr: Tracer, record: bool) -> tuple[float, dict]:
    """Time one graph to its verdict, then check it; with `record`, also
    take its counts and artifact digests. Nothing after the verdict is timed."""
    t0 = time.perf_counter()
    with tr.span("graph"):
        if workload == "oracle-n7":
            out = decide_graph(g, tr)
        elif workload == "prove-large":
            out = prove_graph(g, tr, "pruned", g.n, round_trip=True)
        else:
            out = prove_graph(g, tr, "auto", None, round_trip=False)
    seconds = time.perf_counter() - t0
    if workload == "oracle-n7":
        if out["hamiltonian"] != out["sat"]:
            raise BenchFailure("path search and encoding satisfiability disagree")
        measured = {"rows": 0 if out["sat"] else g.n ** g.n}
        if record:
            measured.update(decide_record(g))
    else:
        if is_hamiltonian(g) is not None:
            raise BenchFailure("a Hamiltonian graph was refuted")
        measured = prove_record(out) if record else {}
    return seconds, measured


def run_pass(workload: str, graphs: list, traced: bool, record: bool) -> dict:
    """One pass over the inputs; a graph that raises is recorded as failed."""
    tr = Tracer(traced)
    records = []
    for i, g in enumerate(graphs):
        gid = f"{i}:n{g.n}:{g.graph_id}"
        tr.trace = gid
        rec = {"graph": gid}
        try:
            seconds, measured = run_graph(workload, g, tr, record)
            rec.update(measured, seconds=seconds, error=None)
        except Exception as exc:  # one bad graph must not end the pass
            rec.update(seconds=None, error=f"{type(exc).__name__}: {exc}")
        records.append(rec)
    result = {"traced": traced, "graphs": records}
    if traced:
        scans = {r["graph"]: r["rows"] for r in records if r.get("rows")}
        sat_s = sum(s["end"] - s["start"] for s in tr.spans
                    if s["name"] == "encoding.satisfiable" and s["trace"] in scans)
        result["layers"] = self_times(tr.spans)
        result["rows_per_s"] = sum(scans.values()) / sat_s if sat_s else 0.0
        result["spans"] = tr.spans
    return result
