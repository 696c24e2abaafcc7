"""The four FIPS 140-2 statistical tests on a 20 000-bit block.

These are the tests the prior hardware implementations referenced by the
paper provide.  They are deliberately simple — fixed block size, fixed
acceptance intervals, pass/fail only — which is both their appeal for
hardware and their weakness as a health test (no tunable significance level,
no sensitivity to weaknesses that need longer observation windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.nist.common import BitsLike, to_bits

__all__ = [
    "FIPS_BLOCK_BITS",
    "FIPS_TEST_NAMES",
    "FipsTestResult",
    "FipsReport",
    "FipsBattery",
    "monobit_test",
    "monobit_test_from_context",
    "poker_test",
    "poker_test_from_context",
    "runs_test",
    "runs_test_from_context",
    "long_run_test",
    "long_run_test_from_context",
    "fips_battery",
]

#: Canonical short names of the four FIPS tests, in battery order.
FIPS_TEST_NAMES = ("monobit", "poker", "runs", "long_run")

#: The FIPS battery always evaluates exactly 20 000 bits.
FIPS_BLOCK_BITS = 20000

#: FIPS 140-2 monobit acceptance interval (exclusive bounds).
MONOBIT_BOUNDS: Tuple[int, int] = (9725, 10275)

#: FIPS 140-2 poker-test acceptance interval (exclusive bounds).
POKER_BOUNDS: Tuple[float, float] = (2.16, 46.17)

#: FIPS 140-2 per-run-length acceptance intervals (inclusive bounds), applied
#: to runs of zeros and runs of ones separately; the final entry covers all
#: runs of length >= 6.
RUNS_BOUNDS: Dict[int, Tuple[int, int]] = {
    1: (2343, 2657),
    2: (1135, 1365),
    3: (542, 708),
    4: (251, 373),
    5: (111, 201),
    6: (111, 201),
}

#: FIPS 140-2 long-run limit: any run of this length or more fails.
LONG_RUN_LIMIT = 26


@dataclass
class FipsTestResult:
    """Outcome of one FIPS test."""

    name: str
    passed: bool
    statistic: float
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class FipsReport:
    """Outcome of the whole battery on one 20 000-bit block."""

    results: List[FipsTestResult]

    @property
    def passed(self) -> bool:
        """True when all four tests accept the block."""
        return all(result.passed for result in self.results)

    def failing_tests(self) -> List[str]:
        """Names of the tests that rejected the block."""
        return [result.name for result in self.results if not result.passed]


def _check_block(bits: BitsLike) -> np.ndarray:
    arr = to_bits(bits)
    _check_length(arr.size)
    return arr


def _check_length(n: int) -> None:
    if n != FIPS_BLOCK_BITS:
        raise ValueError(
            f"the FIPS battery requires exactly {FIPS_BLOCK_BITS} bits, got {n}"
        )


def _monobit_result(ones: int) -> FipsTestResult:
    low, high = MONOBIT_BOUNDS
    return FipsTestResult(
        name="FIPS monobit",
        passed=low < ones < high,
        statistic=float(ones),
        details={"ones": ones, "bounds": MONOBIT_BOUNDS},
    )


def monobit_test(bits: BitsLike) -> FipsTestResult:
    """FIPS monobit test: the number of ones must lie in (9725, 10275)."""
    arr = _check_block(bits)
    return _monobit_result(int(arr.sum()))


def monobit_test_from_context(context) -> FipsTestResult:
    """Context-aware monobit test reading the shared ones counter."""
    _check_length(context.n)
    return _monobit_result(context.ones)


def _poker_result(counts: np.ndarray) -> FipsTestResult:
    num_nibbles = FIPS_BLOCK_BITS // 4
    statistic = float(16.0 / num_nibbles * np.sum(counts ** 2) - num_nibbles)
    low, high = POKER_BOUNDS
    return FipsTestResult(
        name="FIPS poker",
        passed=low < statistic < high,
        statistic=statistic,
        details={"counts": counts.astype(int).tolist(), "bounds": POKER_BOUNDS},
    )


def poker_test(bits: BitsLike) -> FipsTestResult:
    """FIPS poker test on non-overlapping 4-bit nibbles."""
    arr = _check_block(bits)
    nibbles = arr.reshape(-1, 4)
    weights = np.array([8, 4, 2, 1])
    values = nibbles @ weights
    counts = np.bincount(values, minlength=16).astype(np.float64)
    return _poker_result(counts)


def poker_test_from_context(context) -> FipsTestResult:
    """Context-aware poker test reading the shared nibble-value histogram."""
    _check_length(context.n)
    return _poker_result(context.block_value_counts(4).astype(np.float64))


def _run_lengths(arr: np.ndarray) -> Dict[int, Dict[int, int]]:
    """Histogram of run lengths, separately for runs of zeros and of ones.

    Returns ``{bit_value: {capped_length: count}}`` where lengths of six or
    more are accumulated under the key 6.
    """
    histogram = {0: {length: 0 for length in range(1, 7)}, 1: {length: 0 for length in range(1, 7)}}
    if arr.size == 0:
        return histogram
    boundaries = np.flatnonzero(np.diff(arr.astype(np.int8))) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [arr.size]])
    for start, end in zip(starts, ends):
        value = int(arr[start])
        length = min(int(end - start), 6)
        histogram[value][length] += 1
    return histogram


def _runs_result(histogram: Dict[int, Dict[int, int]]) -> FipsTestResult:
    violations = []
    for value in (0, 1):
        for length, (low, high) in RUNS_BOUNDS.items():
            count = histogram[value][length]
            if not low <= count <= high:
                violations.append((value, length, count))
    return FipsTestResult(
        name="FIPS runs",
        passed=not violations,
        statistic=float(len(violations)),
        details={"histogram": histogram, "violations": violations},
    )


def runs_test(bits: BitsLike) -> FipsTestResult:
    """FIPS runs test: per-length run counts within the tabulated intervals."""
    arr = _check_block(bits)
    return _runs_result(_run_lengths(arr))


def runs_test_from_context(context) -> FipsTestResult:
    """Context-aware runs test reading the shared run-length histogram."""
    _check_length(context.n)
    return _runs_result(context.run_length_histogram(cap=6))


def _long_run_result(longest: int) -> FipsTestResult:
    return FipsTestResult(
        name="FIPS long run",
        passed=longest < LONG_RUN_LIMIT,
        statistic=float(longest),
        details={"longest_run": longest, "limit": LONG_RUN_LIMIT},
    )


def long_run_test(bits: BitsLike) -> FipsTestResult:
    """FIPS long-run test: no run of 26 or more identical bits."""
    arr = _check_block(bits)
    longest = 0
    current = 1
    for i in range(1, arr.size):
        if arr[i] == arr[i - 1]:
            current += 1
        else:
            longest = max(longest, current)
            current = 1
    longest = max(longest, current) if arr.size else 0
    return _long_run_result(longest)


def long_run_test_from_context(context) -> FipsTestResult:
    """Context-aware long-run test reading the shared longest-run value."""
    _check_length(context.n)
    return _long_run_result(context.longest_run())


def fips_battery(bits: BitsLike) -> FipsReport:
    """Run the complete FIPS 140-2 battery on one 20 000-bit block."""
    arr = _check_block(bits)
    return FipsReport(
        results=[
            monobit_test(arr),
            poker_test(arr),
            runs_test(arr),
            long_run_test(arr),
        ]
    )


class FipsBattery:
    """Engine-backed runner of the FIPS battery over shared-statistic contexts.

    Uniform counterpart of :class:`repro.nist.suite.NistSuite`: each FIPS
    test draws its raw statistic (ones count, nibble histogram, run-length
    histogram, longest run) from a
    :class:`~repro.engine.context.SequenceContext`, so the four tests share
    one scan of the block instead of four — and :meth:`run_batch` shares one
    vectorised pass across a whole batch of 20 000-bit blocks.
    """

    _CONTEXT_TESTS = (
        monobit_test_from_context,
        poker_test_from_context,
        runs_test_from_context,
        long_run_test_from_context,
    )

    def run(self, bits: BitsLike) -> FipsReport:
        """Run the battery on one 20 000-bit block via a shared context."""
        from repro.engine.context import SequenceContext

        context = bits if isinstance(bits, SequenceContext) else SequenceContext(bits)
        _check_length(context.n)
        return FipsReport(results=[test(context) for test in self._CONTEXT_TESTS])

    def run_batch(self, blocks) -> List[FipsReport]:
        """Run the battery on many blocks with one vectorised statistics pass."""
        from repro.engine.context import BatchContext

        arrays = [to_bits(block) for block in blocks]
        for arr in arrays:
            _check_length(arr.size)
        return [self.run(context) for context in BatchContext.from_blocks(arrays).contexts()]
