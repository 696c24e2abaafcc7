"""Uniform test registry: NIST, FIPS and hardware-model tests, one interface.

The paper's three test layers (the reference NIST suite, the FIPS 140-2
baseline battery and the HW/SW platform model) historically each had their
own dispatch structure — a hard-coded dict in ``nist/suite.py``, a fixed
list in ``fips/battery.py`` and ad-hoc per-design wiring in ``hwtests/``.
This module replaces those with one :class:`TestRegistry` of
:class:`RegisteredTest` entries sharing the :class:`StatisticalTest`
protocol: every test exposes a stable id, a human-readable name and a
``run(context, **params) -> TestResult`` entry point fed from a shared
:class:`~repro.engine.context.SequenceContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.engine import heavy as _heavy
from repro.engine.context import BatchContext, SequenceContext
from repro.fips import battery as _fips
from repro.nist.approximate_entropy import approximate_entropy_test_from_context
from repro.nist.block_frequency import block_frequency_test_from_context
from repro.nist.common import TestResult
from repro.nist.cusum import cumulative_sums_test_from_context
from repro.nist.dft import dft_test
from repro.nist.frequency import frequency_test_from_context
from repro.nist.linear_complexity import linear_complexity_test
from repro.nist.longest_run import longest_run_test_from_context
from repro.nist.nonoverlapping import non_overlapping_template_test_from_context
from repro.nist.overlapping import overlapping_template_test_from_context
from repro.nist.random_excursions import random_excursions_test
from repro.nist.random_excursions_variant import random_excursions_variant_test
from repro.nist.rank import binary_matrix_rank_test
from repro.nist.runs import runs_test_from_context
from repro.nist.serial import serial_test_from_context
from repro.nist.suite import NIST_TEST_NAMES
from repro.nist.universal import universal_test

__all__ = [
    "StatisticalTest",
    "RegisteredTest",
    "TestRegistry",
    "TestSpec",
    "DEFAULT_REGISTRY",
    "NIST_NUMBER_TO_ID",
    "build_default_registry",
]

#: Anything that resolves to a registered test: a test object, a canonical
#: id or alias string, or a NIST test number.
TestSpec = Union["RegisteredTest", str, int]


@runtime_checkable
class StatisticalTest(Protocol):
    """The uniform interface every registered test implements."""

    id: str
    name: str

    def run(self, context: SequenceContext, **params) -> TestResult:
        """Evaluate the test on a shared-statistic context."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RegisteredTest:
    """A test behind the uniform interface.

    Attributes
    ----------
    id:
        Canonical id, namespaced by layer (``nist.serial``, ``fips.poker``,
        ``hw.platform``).
    name:
        Human-readable name.
    runner:
        ``runner(context, **params) -> TestResult``.
    aliases:
        Alternative lookup keys (the NIST number, its string form, ...).
    batch_runner:
        Optional batch-native entry point
        ``batch_runner(batch, **params) -> List[TestResult]`` evaluating the
        whole :class:`~repro.engine.context.BatchContext` at once (one
        result per sequence, bit-identical to ``runner``).  May raise
        :class:`~repro.engine.heavy.BatchFallback` for parameters outside
        its fast path.
    """

    id: str
    name: str
    runner: Callable[..., TestResult]
    aliases: Tuple[TestSpec, ...] = ()
    batch_runner: Optional[Callable[..., List[TestResult]]] = None

    def run(self, context: SequenceContext, **params) -> TestResult:
        return self.runner(context, **params)

    def run_batch(self, batch: BatchContext, **params) -> List[TestResult]:
        """Evaluate the whole batch at once (batch-native tests only)."""
        if self.batch_runner is None:
            raise ValueError(f"test {self.id!r} has no batch-native runner")
        return self.batch_runner(batch, **params)


class TestRegistry:
    """Lookup table of registered tests, keyed by id and aliases."""

    #: Not a pytest test class, despite the name (prevents collection warnings).
    __test__ = False

    def __init__(self) -> None:
        self._tests: Dict[str, RegisteredTest] = {}
        self._aliases: Dict[TestSpec, str] = {}

    def register(self, test: RegisteredTest, replace: bool = False) -> RegisteredTest:
        """Add a test; aliases must not collide unless ``replace`` is set."""
        keys = [test.id, *test.aliases]
        if not replace:
            for key in keys:
                if key in self._aliases:
                    raise ValueError(f"test key {key!r} already registered")
        self._tests[test.id] = test
        for key in keys:
            self._aliases[key] = test.id
        return test

    def resolve(self, spec: TestSpec) -> RegisteredTest:
        """Resolve a test object, canonical id, alias or NIST number."""
        if isinstance(spec, RegisteredTest):
            return spec
        canonical = self._aliases.get(spec)
        if canonical is None:
            raise ValueError(f"unknown test {spec!r}")
        return self._tests[canonical]

    def ids(self) -> Tuple[str, ...]:
        """Canonical ids of all registered tests, in registration order."""
        return tuple(self._tests)

    def __contains__(self, spec: TestSpec) -> bool:
        return isinstance(spec, RegisteredTest) or spec in self._aliases

    def __iter__(self) -> Iterator[RegisteredTest]:
        return iter(self._tests.values())

    def __len__(self) -> int:
        return len(self._tests)


# ---------------------------------------------------------------------------
# Default registry: the 15 NIST tests, the 4 FIPS tests, the hw-model battery
# ---------------------------------------------------------------------------

#: NIST test number (Table I of the paper) -> canonical registry id.
NIST_NUMBER_TO_ID: Dict[int, str] = {
    1: "nist.frequency",
    2: "nist.block_frequency",
    3: "nist.runs",
    4: "nist.longest_run",
    5: "nist.rank",
    6: "nist.dft",
    7: "nist.non_overlapping_template",
    8: "nist.overlapping_template",
    9: "nist.universal",
    10: "nist.linear_complexity",
    11: "nist.serial",
    12: "nist.approximate_entropy",
    13: "nist.cumulative_sums",
    14: "nist.random_excursions",
    15: "nist.random_excursions_variant",
}


def _reference_runner(reference: Callable[..., TestResult]) -> Callable[..., TestResult]:
    """Adapt a bits-based reference test to the context interface.

    Used for the tests without shared sub-statistics (rank, DFT, universal,
    linear complexity, random excursions); they read the raw bits off the
    context, so results are trivially identical to the direct call.
    """

    def runner(context: SequenceContext, **params) -> TestResult:
        return reference(context.bits, **params)

    runner.__name__ = f"context_{reference.__name__}"
    return runner


def _fips_runner(context_test: Callable[[SequenceContext], _fips.FipsTestResult]):
    """Adapt a FIPS pass/fail test to the :class:`TestResult` interface.

    FIPS tests have no significance level, so the P-value degenerates to
    1.0 (accept) / 0.0 (reject); the native result rides in ``details``.
    """

    def runner(context: SequenceContext) -> TestResult:
        outcome = context_test(context)
        return TestResult(
            name=outcome.name,
            statistic=outcome.statistic,
            p_value=1.0 if outcome.passed else 0.0,
            details={"fips": outcome, **outcome.details},
        )

    runner.__name__ = f"uniform_{context_test.__name__}"
    return runner


_HW_PLATFORM_CACHE: Dict[Tuple[str, float], object] = {}


def _hw_platform_runner(context: SequenceContext, design: str = "n65536_high",
                        alpha: float = 0.01) -> TestResult:
    """Run the HW/SW platform model (functional path) as a registry test.

    The sequence is pushed through the unified hardware testing block's
    vectorised functional model and verified by the 16-bit software routines;
    the aggregated verdict is reported as a degenerate P-value (1.0 pass /
    0.0 fail) with the full :class:`~repro.core.results.PlatformReport` in
    ``details``.
    """
    from repro.core.platform import OnTheFlyPlatform  # deferred: avoids cycle

    key = (design, alpha)
    platform = _HW_PLATFORM_CACHE.get(key)
    if platform is None:
        platform = _HW_PLATFORM_CACHE.setdefault(key, OnTheFlyPlatform(design, alpha=alpha))
    if context.n != platform.n:
        raise ValueError(f"expected {platform.n} bits, got {context.n}")
    report = platform.evaluate_sequence(context.bits, accelerated=True)
    return TestResult(
        name=f"HW/SW platform ({design})",
        statistic=float(len(report.failing_tests)),
        p_value=1.0 if report.passed else 0.0,
        details={"platform_report": report, "failing_tests": report.failing_tests},
    )


def build_default_registry() -> TestRegistry:
    """The registry wiring all three test layers behind one interface."""
    registry = TestRegistry()

    nist_runners: Dict[int, Callable[..., TestResult]] = {
        1: frequency_test_from_context,
        2: block_frequency_test_from_context,
        3: runs_test_from_context,
        4: longest_run_test_from_context,
        5: _reference_runner(binary_matrix_rank_test),
        6: _reference_runner(dft_test),
        7: non_overlapping_template_test_from_context,
        8: overlapping_template_test_from_context,
        9: _reference_runner(universal_test),
        10: _reference_runner(linear_complexity_test),
        11: serial_test_from_context,
        12: approximate_entropy_test_from_context,
        13: cumulative_sums_test_from_context,
        14: _reference_runner(random_excursions_test),
        15: _reference_runner(random_excursions_variant_test),
    }
    # The five heavyweight tests: batch-native kernels evaluate a whole
    # packed batch at once; the scalar runner stays the per-sequence
    # reference and the route for BatchFallback geometries.
    batch_runners: Dict[int, Callable[..., List[TestResult]]] = {
        5: _heavy.batch_rank,
        6: _heavy.batch_dft,
        9: _heavy.batch_universal,
        10: _heavy.batch_linear_complexity,
        14: _heavy.batch_random_excursions,
        15: _heavy.batch_random_excursions_variant,
    }
    for number, runner in nist_runners.items():
        registry.register(
            RegisteredTest(
                id=NIST_NUMBER_TO_ID[number],
                name=NIST_TEST_NAMES[number],
                runner=runner,
                aliases=(number, str(number), f"nist.{number}"),
                batch_runner=batch_runners.get(number),
            )
        )

    fips_context_tests = {
        "monobit": _fips.monobit_test_from_context,
        "poker": _fips.poker_test_from_context,
        "runs": _fips.runs_test_from_context,
        "long_run": _fips.long_run_test_from_context,
    }
    for short_name, context_test in fips_context_tests.items():
        registry.register(
            RegisteredTest(
                id=f"fips.{short_name}",
                name=f"FIPS {short_name.replace('_', ' ')}",
                runner=_fips_runner(context_test),
            )
        )

    registry.register(
        RegisteredTest(
            id="hw.platform",
            name="HW/SW on-the-fly platform",
            runner=_hw_platform_runner,
        )
    )
    return registry


#: The shared default registry used by the suite, battery and batch executor.
DEFAULT_REGISTRY = build_default_registry()
