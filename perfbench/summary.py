"""Print every end-to-end metric of every workload, one row per workload.

    python3 perfbench/summary.py [--seeds 10] [--trace] [--out perfbench/baseline.json]

Run it from the root of a checkout. It runs `run.py` for each workload
with seeds 1..N for the `run_seconds` that BENCHMARK.json gives, and
prints each metric's median over the seeds, with its spread (quartile
distance over median) when N > 1. With --trace it adds one traced run per
workload (seed 1) and prints its per-layer metrics as a second row. --out
writes every value, the machine, and the artifact digests to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py call: its result line and the full report it wrote."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(report.read_text(encoding="utf-8"))


def summarize(results: list[dict]) -> dict:
    """Median and spread of each metric over runs."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"median": median, "unit": first["unit"], "values": values}
        if len(values) > 1:
            q = statistics.quantiles(values, n=4)
            entry["spread"] = (q[2] - q[0]) / median if median else 0.0
        out[name] = entry
    return out


def row(workload: str, metrics: dict, failed: int, attempted: int) -> str:
    cells = []
    for name, m in metrics.items():
        cell = f"{name}={m['median']:.6g} {m['unit']}"
        if "spread" in m:
            cell += f" (±{m['spread']:.3f})"
        cells.append(cell)
    cells.append(f"error_rate={failed / attempted:.6g} ({failed}/{attempted})")
    return f"{workload:12s} " + "  ".join(cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="run seeds 1..N")
    parser.add_argument("--trace", action="store_true", help="add one traced run")
    parser.add_argument("--out", help="write all values and digests here")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        results, digests = [], {}
        for seed in range(1, args.seeds + 1):
            result, report = run(name, seed, seconds, 0)
            results.append(result)
            summary["machine"] = report["machine"]
            digests[seed] = {g["graph"]: {k: a["sha256"] for k, a in g["artifacts"].items()}
                             for g in report["passes"][0]["graphs"] if g.get("artifacts")}
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        entry = {"why": w["why"], "correct": all(r["correct"] for r in results),
                 "failed": failed, "attempted": attempted,
                 "end_to_end": summarize(results), "artifacts": digests}
        print(row(name, entry["end_to_end"], failed, attempted), flush=True)
        if args.trace:
            traced, _ = run(name, 1, seconds, 1)
            entry["per_layer"] = summarize([traced])
            entry["correct"] = entry["correct"] and traced["correct"]
            print(row(name, entry["per_layer"], traced["failed"], traced["attempted"]),
                  flush=True)
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(e["correct"] for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
