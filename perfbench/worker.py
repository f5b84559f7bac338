"""One benchmark pass in a fresh interpreter; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|traced \
        [--record] [--limit K]

Run from the root of a checkout. It imports `nonham` from `src/`, builds the
workload's inputs, prints the line `ready` (the parent's clock for set-up
stops there), runs one pass unless the mode is `setup`, and prints one JSON
line. With `--record` the pass also takes counts and artifact digests; with
`--limit K` it runs only the first K graphs, after building all of them. A
fresh interpreter per pass keeps the formula intern table and the compile
cache empty at the start, as for every `nonham` command.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--limit", type=int)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import nonham.cli  # noqa: F401  -- what every command line call pays
    import_s = time.perf_counter() - t0
    if not Path(nonham.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: nonham was imported from {nonham.cli.__file__}, not {src}",
              file=sys.stderr)
        return 1

    import stages

    graphs = stages.make_inputs(args.workload, args.seed)
    print("ready", flush=True)
    result = {"import_s": import_s}
    if args.mode != "setup":
        result.update(stages.run_pass(args.workload, graphs[:args.limit],
                                      args.mode == "traced", args.record))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["machine"] = machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
