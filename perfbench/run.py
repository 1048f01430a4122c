"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``diameter-paper17``, ``serve-zipf``, ``serve-churn`` (see
``perfbench/README.md``). Inputs are generated from ``--seed`` and
cached under ``.perfbench_work/``; every answer is audited. With
``--trace 0`` the last line of standard output is the result object
with the end-to-end metrics; with ``--trace 1`` the run is measured
once untraced and once traced, and the result carries the per-layer
metrics. Earlier lines are a human-readable report.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# Spawned helper processes re-import this file; they need the program too.
sys.path.insert(1, str(HERE.parent / "src"))

WORKLOADS = ("diameter-paper17", "serve-zipf", "serve-churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = HERE.parent / "src" / "repro" / "__init__.py"
    if not src.exists():
        print(f"error: program sources not found ({src})", file=sys.stderr)
        return 2
    from common import WORK, adopt_orphans, reap_children

    # SIGTERM unwinds like an error, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    adopt_orphans()
    WORK.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    try:
        if args.workload == "diameter-paper17":
            import diameter as workload

            workload.run(args.seed, args.seconds, bool(args.trace))
        else:
            import serve as workload

            workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        reap_children()
    print(f"# wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
