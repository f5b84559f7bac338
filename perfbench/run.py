"""Pipeline benchmark for nonham: one workload per run.

    python3 perfbench/run.py --workload prove-large --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports `nonham` from `src/` and
needs nothing installed beyond numpy and scipy. Workloads:

* prove-large - `bench.pipeline_row`'s stage sequence, pruned mode with the
  cap raised, on chain_graph(7) and empty_graph(8), JSON round trip
  included: the workload serialization dominates. Its inputs do not
  depend on the seed.
* sweep-n4 - a seeded sample of 100 of the 772 non-Hamiltonian n=4 graphs
  in faithful mode, in memory: many small proofs, builder and compressor
  dominate.
* oracle-n7 - seeded random n=7 graphs (edge probability 0.2, 0.3 or 0.5),
  12 non-Hamiltonian and 4 Hamiltonian, each decided by path search and by
  the encoding's SAT scan: the kernels/encoding layer, no proof layer.

Each pass over a workload's graphs runs in a fresh interpreter
(`worker.py`), one at a time. Passes repeat while the next one is expected
to end within --seconds; with --trace 0 the last pass runs only the leading
graphs that fit in the time left, so the run measures for nearly all of
--seconds. At least three interpreters are started, the extra ones only
timing set-up. The first pass also takes counts and the SHA-256 of every
serialized artifact. With --trace 1 passes are whole and alternate untraced
and traced; the traced ones give the per-layer numbers, as self times summed
over one pass. End-to-end metrics (--trace 0):

* setup_s - median time from interpreter start to the first timed call
  (`import nonham.cli` plus building the inputs);
* wall_s - one pass's time to all verdicts: the sum over graphs of each
  graph's median time to its verdict;
* graph_p50_ms, graph_p90_ms - median and nearest-rank 90th percentile of
  those per-graph times (p90 has ten graphs beyond it only on sweep-n4);
* peak_rss_mb - median peak resident set of the whole untraced passes;
* compression_ratio - geometric mean over graphs of tree weight over dag
  weight; on oracle-n7, of the encoding's weight over the node count of
  its compiled program;
* success_rate - graphs without a failed check over graphs attempted.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the full report, with the machine, per-graph
counts and digests and the spans, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("prove-large", "sweep-n4", "oracle-n7")
MIN_SETUPS = 3
RUN_LIMIT_S = 170  # a worker still running this long after the start is killed

# spans recorded around the calls into each layer; metric `<span>_s`
LAYERS = (
    "builder.build_refutation",
    "implicational.translate",
    "prooftree.check_tree",
    "prooftree.dumps",
    "prooftree.loads",
    "dagproof.dumps",
    "dagproof.loads",
    "dagproof.compress",
    "dagproof.coherence",
    "dagproof.cleanse",
    "dagproof.verify",
    "encoding.satisfiable",
    "graphs.is_hamiltonian",
)
COUNTS = (
    "builder.leaf_count",
    "builder.proof_nodes",
    "implicational.axioms_used",
    "prooftree.tree_weight",
    "prooftree.distinct_formulas",
    "dagproof.occurrences",
    "dagproof.nodes",
    "dagproof.separation_nodes",
    "dagproof.incoherent",
    "dagproof.verified",
    "kernels.program_nodes",
)


class WorkerError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, timeout: float,
               record: bool = False, limit: int | None = None) -> tuple[float, dict]:
    """Start one fresh interpreter; return its set-up seconds and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if record:
        cmd.append("--record")
    if limit is not None:
        cmd += ["--limit", str(limit)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    # the set-up clock stops at the worker's first line; a worker that
    # hangs is killed, which ends both reads below
    timer = threading.Timer(max(timeout, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def graph_medians(passes: list[dict]) -> list[float]:
    """Each graph's median seconds to its verdict over the given passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for g in p["graphs"]:
            if g["error"] is None:
                times.setdefault(g["graph"], []).append(g["seconds"])
    return [statistics.median(t) for t in times.values()]


def artifact_bytes(graphs: list[dict], kind: str) -> int:
    return sum(g["artifacts"][kind]["bytes"] for g in graphs if kind in g["artifacts"])


def fitting(graphs: list[dict], seconds: float) -> int:
    """How many leading graphs, at their first-pass times, fit in `seconds`."""
    total = 0.0
    for k, g in enumerate(graphs):
        total += g["seconds"] or 0.0
        if total > seconds:
            return k
    return len(graphs)


def end_to_end(setups: list[float], passes: list[dict], failed: int,
               attempted: int) -> dict:
    plain = [p for p in passes if not p["traced"]]
    times = graph_medians(plain)
    # a partial pass stops before the graphs that would set its peak
    whole = [p for p in plain if len(p["graphs"]) == len(passes[0]["graphs"])]
    clean = [g for g in passes[0]["graphs"] if g["error"] is None]
    ratios = [g["ratio"] for g in clean]
    geo = math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "graph_p50_ms": (statistics.median(times) * 1000 if times else 0.0, "ms"),
        "graph_p90_ms": (percentile(times, 0.9) * 1000 if times else 0.0, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in whole), "MB"),
        "compression_ratio": (geo, "x"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(import_times: list[float], passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {
        f"{span}_s": (statistics.median(p["layers"].get(span, 0.0) for p in traced), "s")
        for span in LAYERS
    }
    values["kernels.rows_per_s"] = (statistics.median(p["rows_per_s"] for p in traced), "1/s")
    values["cli.import_s"] = (statistics.median(import_times), "s")
    clean = [g for g in passes[0]["graphs"] if g["error"] is None]
    for name in COUNTS:
        values[name] = (sum(g["counts"].get(name, 0) for g in clean), "count")
    values["prooftree.bytes"] = (artifact_bytes(clean, "proof"), "bytes")
    values["dagproof.bytes"] = (artifact_bytes(clean, "dag"), "bytes")
    tree_w = values["prooftree.tree_weight"][0]
    spine_w = sum(g["counts"].get("implicational.spine_weight", 0) for g in clean)
    values["implicational.spine_share"] = (spine_w / tree_w if tree_w else 0.0, "ratio")
    values["trace.overhead_s"] = (sum(graph_medians(traced)) - sum(graph_medians(plain)), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the `finally` in run_worker, which stops the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (Path.cwd() / "src" / "nonham" / "__init__.py").is_file():
        print("error: run from the root of a nonham checkout (src/nonham not found)",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    setups, imports, passes = [], [], []
    limit = None
    try:
        while True:
            mode = "traced" if args.trace and len(passes) % 2 else "plain"
            t0 = time.perf_counter()
            setup_s, report = run_worker(args.workload, args.seed, mode,
                                         RUN_LIMIT_S - (t0 - start), record=not passes,
                                         limit=limit)
            setups.append(setup_s)
            imports.append(report["import_s"])
            passes.append(report)
            if limit is not None:
                break
            now = time.perf_counter()
            left = args.seconds - (now - start)
            if now - t0 <= left:
                continue  # another whole pass fits
            if args.trace:
                if len(passes) < 2:
                    continue  # a traced run needs one untraced and one traced pass
                break
            limit = fitting(passes[0]["graphs"], left - statistics.median(setups))
            if limit == 0:
                break
        while len(setups) < MIN_SETUPS:
            setup_s, report = run_worker(args.workload, args.seed, "setup",
                                         RUN_LIMIT_S - (time.perf_counter() - start))
            setups.append(setup_s)
            imports.append(report["import_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["graphs"]) for p in passes)
    failed = sum(g["error"] is not None for p in passes for g in p["graphs"])
    if args.trace:
        metrics = per_layer(imports, passes)
    else:
        metrics = end_to_end(setups, passes, failed, attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    spans = []
    for i, p in enumerate(passes):
        for s in p.pop("spans", []):
            spans.append(dict(s, run_pass=i))
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": passes[0]["machine"], **result,
        "setup_s": setups, "import_s": imports,
        "graph_samples": sum(g["error"] is None for p in passes if not p["traced"]
                             for g in p["graphs"]),
        "passes": passes, "spans": spans,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"report: {report_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
