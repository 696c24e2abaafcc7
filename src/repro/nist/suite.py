"""Driver that runs a configurable subset of the NIST SP 800-22 suite.

The suite is parameterised so it can be run both in its standard (PRNG
evaluation) configuration and in the reduced, hardware-friendly
configurations used by the paper's design points.

Since the unified batch engine refactor the suite no longer dispatches to
the per-test reference functions through a hard-coded dict: tests are
resolved from the engine's :data:`~repro.engine.registry.DEFAULT_REGISTRY`
and evaluated on a shared :class:`~repro.engine.context.SequenceContext`,
so tests that need the same sub-statistic (ones count, pattern counters,
template counters, block sums) compute it once — the software analogue of the
paper's shared hardware counters.  :meth:`NistSuite.run_batch` extends the
sharing across the sequence axis of a whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.nist.common import BitsLike, TestResult, to_bits

__all__ = ["NIST_TEST_NAMES", "NistSuite", "SuiteReport", "run_all_tests"]

#: NIST test numbering (Table I of the paper) -> canonical test name.
NIST_TEST_NAMES: Dict[int, str] = {
    1: "Frequency (Monobit) Test",
    2: "Frequency Test within a Block",
    3: "Runs Test",
    4: "Longest Run of Ones in a Block",
    5: "Binary Matrix Rank Test",
    6: "Discrete Fourier Transform (Spectral) Test",
    7: "Non-overlapping Template Matching Test",
    8: "Overlapping Template Matching Test",
    9: "Maurer's Universal Statistical Test",
    10: "Linear Complexity Test",
    11: "Serial Test",
    12: "Approximate Entropy Test",
    13: "Cumulative Sums Test",
    14: "Random Excursions Test",
    15: "Random Excursions Variant Test",
}

#: Tests the paper selects for HW/SW co-design (the "Yes" rows of Table I).
HW_SUITABLE_TESTS = (1, 2, 3, 4, 7, 8, 11, 12, 13)


@dataclass
class SuiteReport:
    """Aggregated result of a suite run."""

    n: int
    results: Dict[int, TestResult] = field(default_factory=dict)
    errors: Dict[int, str] = field(default_factory=dict)

    def passed(self, alpha: float = 0.01) -> bool:
        """True when every test that ran accepted the randomness hypothesis."""
        return all(result.passed(alpha) for result in self.results.values())

    def failing_tests(self, alpha: float = 0.01) -> List[int]:
        """Numbers of tests that rejected the randomness hypothesis."""
        return [num for num, result in self.results.items() if not result.passed(alpha)]

    def p_values(self) -> Dict[int, float]:
        """Primary P-value per executed test."""
        return {num: result.p_value for num, result in self.results.items()}

    def summary_rows(self, alpha: float = 0.01) -> List[Dict[str, object]]:
        """Tabular summary convenient for printing/reporting."""
        rows = []
        for num in sorted(self.results):
            result = self.results[num]
            rows.append(
                {
                    "test": num,
                    "name": result.name,
                    "p_value": result.min_p_value,
                    "passed": result.passed(alpha),
                }
            )
        for num in sorted(self.errors):
            rows.append(
                {
                    "test": num,
                    "name": NIST_TEST_NAMES[num],
                    "p_value": None,
                    "passed": None,
                    "error": self.errors[num],
                }
            )
        return rows


class NistSuite:
    """Configurable runner over the 15 reference NIST tests.

    Parameters
    ----------
    tests:
        Test numbers (1..15) to run; defaults to all 15.
    parameters:
        Optional per-test keyword arguments, keyed by test number, e.g.
        ``{2: {"block_length": 1024}, 11: {"m": 4}}``.
    skip_errors:
        When True (default) a test that raises ``ValueError`` (for instance
        because the sequence is too short) is recorded in
        :attr:`SuiteReport.errors` instead of aborting the whole run.
    """

    def __init__(
        self,
        tests: Optional[Sequence[int]] = None,
        parameters: Optional[Dict[int, Dict[str, object]]] = None,
        skip_errors: bool = True,
    ):
        requested = tuple(tests) if tests is not None else tuple(range(1, 16))
        unknown = [t for t in requested if t not in NIST_TEST_NAMES]
        if unknown:
            raise ValueError(f"unknown test numbers: {unknown}")
        self.tests = requested
        self.parameters = dict(parameters or {})
        self.skip_errors = skip_errors

    def run(self, bits: BitsLike) -> SuiteReport:
        """Run the configured tests on ``bits`` and return a report.

        ``bits`` may also be a pre-built
        :class:`~repro.engine.context.SequenceContext`, in which case its
        memoized statistics are reused across this run.
        """
        # Imported here (not at module level): the engine registry imports
        # this module for the canonical test names.
        from repro.engine.context import SequenceContext
        from repro.engine.registry import DEFAULT_REGISTRY

        if isinstance(bits, SequenceContext):
            context = bits
        else:
            context = SequenceContext(to_bits(bits))
        report = SuiteReport(n=context.n)
        for number in self.tests:
            test = DEFAULT_REGISTRY.resolve(number)
            kwargs = self.parameters.get(number, {})
            try:
                report.results[number] = test.run(context, **kwargs)
            except ValueError as exc:
                if not self.skip_errors:
                    raise
                report.errors[number] = str(exc)
        return report

    def run_batch(self, sequences) -> List[SuiteReport]:
        """Run the configured tests over a batch of equal-length sequences.

        The batch shares one :class:`~repro.engine.context.BatchContext`:
        cheap tests read its vectorised statistics, the heavyweight ones run
        on batch-native kernels.  Returns one :class:`SuiteReport` per input
        sequence, with results bit-identical to calling :meth:`run` on each
        sequence individually.
        """
        from repro.engine.batch import run_batch
        from repro.engine.registry import NIST_NUMBER_TO_ID

        engine_reports = run_batch(
            sequences,
            tests=list(self.tests),
            parameters=self.parameters,
            skip_errors=self.skip_errors,
        )
        reports: List[SuiteReport] = []
        for engine_report in engine_reports:
            report = SuiteReport(n=engine_report.n)
            for number in self.tests:
                test_id = NIST_NUMBER_TO_ID[number]
                if test_id in engine_report.results:
                    report.results[number] = engine_report.results[test_id]
                elif test_id in engine_report.errors:
                    report.errors[number] = engine_report.errors[test_id]
            reports.append(report)
        return reports


def run_all_tests(
    bits: BitsLike,
    tests: Optional[Sequence[int]] = None,
    parameters: Optional[Dict[int, Dict[str, object]]] = None,
) -> SuiteReport:
    """Convenience wrapper: run (a subset of) the suite with one call."""
    return NistSuite(tests=tests, parameters=parameters).run(bits)
