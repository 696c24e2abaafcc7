"""Span recording and the arithmetic the benchmark reports.

Pure Python with no dependency on the package under test, so the rules the
benchmark's numbers rest on can be tested on synthetic spans
(``test_spans.py``):

* :class:`Recorder` keeps spans (name, start, end, parent, amount) in
  memory, one list per thread, and exports them when the run ends.
* :func:`self_times` gives each span's duration minus the part of its
  interval that its children cover (children may overlap or nest).
* :func:`percentile` is the nearest-rank percentile; :func:`tail_level`
  picks the highest percentile of a fixed ladder that still has at least
  ten samples beyond it.
* :class:`OpLog` counts attempted and failed operations; a failed operation
  counts as missing every latency limit (its latency is +inf).  Latencies
  can be rescaled per host-gauge interval to reference host speed.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Percentile ladder for tail latencies (percent).
LADDER = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: One exported span: (name, start_s, end_s, parent index or -1, thread key,
#: amount).  ``amount`` carries a count the span's layer reports (bytes,
#: records, ...); a zero-length span is a bare counter.
SpanRow = Tuple[str, float, float, int, int, float]


class Recorder:
    """In-memory span store, safe to use from many threads.

    Each thread appends to its own span list and keeps its own stack of open
    spans, so a span's parent is the innermost span open on the same thread.
    Counters are zero-length spans, so they are filtered by time window and
    by operation tree exactly like the spans around them.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []

    def _state(self) -> Tuple[List[list], List[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: List[list] = []
            state = (spans, [])
            self._local.state = state
            with self._lock:
                self._threads.append(spans)
        return state

    def begin(self, name: str) -> int:
        spans, stack = self._state()
        index = len(spans)
        spans.append([name, self.clock(), 0.0, stack[-1] if stack else -1, 0.0])
        stack.append(index)
        return index

    def end(self, index: int, amount: float = 0.0) -> None:
        spans, stack = self._state()
        row = spans[index]
        row[2] = self.clock()
        row[4] = amount
        stack.pop()

    def leaf(self, name: str, start: float, end: float, amount: float = 0.0) -> None:
        """Record a finished span under the innermost open one."""
        spans, stack = self._state()
        spans.append([name, start, end, stack[-1] if stack else -1, amount])

    def add(self, name: str, amount: float = 1.0) -> None:
        """Count ``amount`` under the innermost open span."""
        now = self.clock()
        self.leaf(name, now, now, amount)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def export(self) -> List[SpanRow]:
        """All spans, parents re-indexed globally, one thread after another."""
        rows: List[SpanRow] = []
        with self._lock:
            threads = list(self._threads)
        for key, spans in enumerate(threads):
            offset = len(rows)
            for name, start, end, parent, amount in list(spans):
                rows.append((name, start, end, parent + offset if parent >= 0 else -1,
                             key, amount))
        return rows


def roots(spans: Sequence[SpanRow]) -> List[int]:
    """Index of each span's root ancestor (parents precede their children)."""
    out: List[int] = []
    for index, row in enumerate(spans):
        parent = row[3]
        out.append(index if parent < 0 else out[parent])
    return out


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[SpanRow]) -> List[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, *_) in enumerate(spans):
        kids = children.get(index)
        covered = _covered(start, end, kids) if kids else 0.0
        result.append((end - start) - covered)
    return result


def layer_totals(
    spans: Sequence[SpanRow], keep: Optional[Sequence[bool]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy (summed durations), self time and amount.

    Calls and busy time count outermost calls only: a span whose parent has
    the same name adds its self time and amount, not its duration.

    ``keep`` selects the spans counted (e.g. one operation tree inside the
    measuring window); self times are still computed against every child.
    """
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for index, ((name, start, end, parent, _, amount), own) in enumerate(zip(spans, selfs)):
        if keep is not None and not keep[index]:
            continue
        row = table.setdefault(name, {"calls": 0.0, "busy": 0.0, "self": 0.0, "amount": 0.0})
        row["self"] += own
        row["amount"] += amount
        # A call nested directly in a call of the same layer is already
        # inside that call's busy time.
        if parent < 0 or spans[parent][0] != name:
            row["calls"] += 1
            row["busy"] += end - start
    return table


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (the value at rank ceil(q/100 * n))."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile's rank."""
    return count - max(1, math.ceil(q / 100.0 * count - 1e-9))


def tail_level(count: int, ladder: Sequence[float] = LADDER, need: int = MIN_BEYOND) -> Optional[float]:
    """Highest percentile of ``ladder`` with at least ``need`` samples beyond it."""
    levels = [q for q in ladder if beyond(count, q) >= need]
    return max(levels) if levels else None


class OpLog:
    """Attempted/failed accounting with latencies, one log per operation kind.

    Each operation also records the host-gauge interval it ran in, so its
    latency can be rescaled to reference host speed (:meth:`scaled`).
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.intervals: List[int] = []
        self.attempted = 0
        self.failed = 0

    def ok(self, seconds: float, interval: int = 0) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.intervals.append(interval)

    def fail(self, interval: int = 0) -> None:
        self.attempted += 1
        self.failed += 1
        self.latencies.append(math.inf)
        self.intervals.append(interval)

    def mark_failed(self, index: int) -> None:
        """A completed operation later found wrong (a correctness mismatch)."""
        if math.isfinite(self.latencies[index]):
            self.latencies[index] = math.inf
            self.failed += 1

    def scaled(self, factor: Callable[[int], float]) -> "OpLog":
        """A copy with each latency multiplied by ``factor(its interval)``."""
        out = OpLog()
        out.latencies = [t * factor(i) for t, i in zip(self.latencies, self.intervals)]
        out.intervals = list(self.intervals)
        out.attempted, out.failed = self.attempted, self.failed
        return out

    def extend(self, other: "OpLog") -> None:
        self.latencies += other.latencies
        self.intervals += other.intervals
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def busy_s(self) -> float:
        return sum(t for t in self.latencies if math.isfinite(t))

    def summary(self) -> Dict[str, object]:
        """Median and the ladder's tail, in ms, with the sample count."""
        count = len(self.latencies)
        out: Dict[str, object] = {"samples": count, "attempted": self.attempted,
                                  "failed": self.failed}
        if count:
            out["p50_ms"] = percentile(self.latencies, 50.0) * 1e3
            level = tail_level(count)
            if level is not None:
                out["tail_level"] = level
                out["tail_ms"] = percentile(self.latencies, level) * 1e3
        return out
