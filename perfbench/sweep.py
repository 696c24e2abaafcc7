"""Run workloads over several seeds and collect a result set.

Usage::

    python3 perfbench/sweep.py --out SET.jsonl [--workloads a,b] [--seeds 1-10]
                               [--seconds S] [--trace 0|1]

Each run is ``run.py`` in its own process, one after another; its record is
appended to ``--out``.  Without ``--seconds`` the run length is
``run_seconds`` from ``BENCHMARK.json``.  Follow with ``compare.py SET.jsonl``
for medians and spreads, or ``compare.py A.jsonl B.jsonl`` for two sets.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            start = time.monotonic()
            result = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", str(args.trace), "--out", args.out],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            last = result.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed={seed} exit={result.returncode} "
                  f"{time.monotonic() - start:.1f}s {last[0][:160]}", flush=True)
            if result.returncode != 0:
                print(result.stderr[-2000:], file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
