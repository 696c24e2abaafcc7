"""Compare result sets written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py A.jsonl [B.jsonl]

For each workload and metric of each set: the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, i.e. the
distance between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  With two sets it adds the change of the
median from A to B and whether B stays within the bound, and, for traced
runs, the change of every layer's median self time per operation.  The
workload-specific names (``round_p50_ms``, ``ingest_p99_ms``, ...) are
compared too; they have no bound.

Exit code 0 when every spread of a bounded metric (``setup_s`` excepted)
is within its bound and, with two sets, no bounded metric of B is worse than
A's by more than the bound; 1 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def bounds() -> Dict[str, Tuple[float, str]]:
    """Metric name -> (bound, better) from BENCHMARK.json next to this directory."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B's median is than A's, as a share of A's (<= 0: not worse)."""
    if not a:
        return 0.0
    return (a - b) / a if better == "higher" else (b - a) / a


def series(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values over runs; metric names of every kind."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        workload = record["workload"]
        for name, metric in record["metrics"].items():
            out.setdefault((workload, name), []).append(metric["value"])
        for name, (value, _) in record.get("named", {}).items():
            out.setdefault((workload, name), []).append(value)
        for name, row in record.get("layers", {}).items():
            out.setdefault((workload, "self:" + name), []).append(row["self"])
    return out


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [series(load(path)) for path in argv]
    limits = bounds()
    ok = True
    keys = sorted(set().union(*sets))
    print(f"{'workload':<20} {'metric':<46} {'set':>3} {'n':>3} {'q1':>11} "
          f"{'median':>11} {'q3':>11} {'spread':>7} {'bound':>6} {'delta':>7}")
    for workload, name in keys:
        bound, better = limits.get(name, (None, None))
        medians = []
        for label, data in zip("AB", sets):
            values = data.get((workload, name))
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            medians.append(median)
            spread_share = spread(values)
            delta = ""
            if len(medians) == 2 and medians[0]:
                delta = f"{(medians[1] - medians[0]) / medians[0]:+7.1%}"
            flag = ""
            if bound is not None and name != "setup_s" and spread_share > bound:
                flag, ok = " SPREAD", False
            if bound is not None and len(medians) == 2 and worse_by(*medians, better) > bound:
                flag, ok = flag + " WORSE", False
            print(f"{workload:<20} {name:<46} {label:>3} {len(values):>3} {q1:>11.5g} "
                  f"{median:>11.5g} {q3:>11.5g} {spread_share:>7.1%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6} {delta:>7}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
