"""Batch executor: many sequences, one shared-statistic context, in process.

``run_batch`` is the engine's answer to the ROADMAP's many-sequence
monitoring traffic: instead of evaluating sequences one at a time (each test
re-scanning the same bitstream), every input — a list of sequences (one
sequence included), a bit matrix, a packed matrix or a prebuilt context —
becomes one :class:`~repro.engine.context.BatchContext` whose statistics are
computed with single vectorised passes over the whole batch.  Each test then
takes one of two routes, recorded in the ``paths`` attribute of the
``run_batch`` span and in the ``repro_engine_tests_total{path}`` counter:

* ``batched`` — the test's batch runner evaluates the whole batch at once:
  * the seven shared-statistic tests (frequency, block frequency, runs,
    longest run, serial, approximate entropy, cusum) decide over whole
    arrays: each returns a :class:`~repro.nist.common.BatchDecision` —
    p-values ``(rows, k)``, statistic ``(rows,)`` and the integer key
    arrays (the hardware counters of the paper) they came from — evaluated
    by the same float expressions as the test's scalar decision helper;
  * the five heavyweight tests (rank, DFT, universal, linear complexity,
    random excursions) run batch-native kernels in
    :mod:`repro.engine.heavy`;
* ``inline`` — the test's scalar runner runs per sequence on the shared
  statistics: the template tests, the FIPS tests, ``hw.platform``, and any
  heavy-test geometry whose kernel raises
  :class:`~repro.engine.heavy.BatchFallback` — as the seven array
  decisions do for a one-row batch, where the scalar helper is cheaper.
  Per-sequence contexts are built only when such a test runs.

Every test's outcome lands in one columnar :class:`BatchReports`; the
per-row results of the heavy and inline tests are folded into the same
arrays, each result object standing in for its key.  The ``run_batch``
span also carries each test's wall time (``seconds``) and the context's
packed kernel dispatches (``kernels``); its one child span, ``pack``, times
the validation and stacking of raw (uint8 or list) input.  ``run_batch``
returns a sequence of lazy
:class:`EngineReport` row views: verdicts (``passed``, ``failing_tests``,
the fleet scheduler's reduction) read the p-value arrays, and a row's
:class:`~repro.nist.common.TestResult` is rebuilt from its key row by the
scalar helper only when it is read.  The views keep those arrays, never the
batch context or its bit matrix.  Results are bit-identical to running each
test directly on each sequence — asserted by
``tests/test_engine_parity.py``, ``tests/test_heavy_batch_parity.py`` and
``tests/test_keyed_decisions.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

import repro.obs as obs
from repro.engine.context import BatchContext, SequenceContext
from repro.engine.heavy import BatchFallback
from repro.engine.packed import PackedMatrix
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    NIST_NUMBER_TO_ID,
    BatchOutcome,
    RegisteredTest,
    TestRegistry,
    TestSpec,
)
from repro.nist.common import BatchDecision, BitsLike, TestResult

__all__ = ["BatchReports", "EngineReport", "run_batch"]

_TESTS_TOTAL = obs.counter(
    "repro_engine_tests_total",
    "Per-sequence test evaluations by execution path (batched/inline).",
    labels=("path",),
)
_BITS_EVALUATED = obs.counter(
    "repro_engine_bits_evaluated_total",
    "Bits entering run_batch (sequences x sequence length).",
)

#: A test's rejections: one message for the whole batch, or row -> message.
_Errors = Union[str, Dict[int, str]]


def _check_alpha(alpha: float) -> None:
    """The significance-level check of :meth:`TestResult.passed`."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


class BatchReports(Sequence["EngineReport"]):
    """Columnar outcome of one :func:`run_batch`, a sequence of row views.

    ``test_ids`` lists the tests in the order they ran; ``decisions`` maps
    each test with results to its :class:`~repro.nist.common.BatchDecision`
    and ``errors`` each test that rejected rows to its message — one string
    when it failed for the whole batch, else a row -> message dict.
    Indexing yields :class:`EngineReport` views.
    """

    def __init__(
        self,
        n: int,
        rows: int,
        test_ids: Sequence[str],
        decisions: Dict[str, BatchDecision],
        errors: Dict[str, _Errors],
    ):
        self.n = n
        self.rows = rows
        self.test_ids = tuple(test_ids)
        self.decisions = decisions
        self.errors = errors

    def __len__(self) -> int:
        return self.rows

    @overload
    def __getitem__(self, index: int) -> "EngineReport": ...

    @overload
    def __getitem__(self, index: slice) -> List["EngineReport"]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union["EngineReport", List["EngineReport"]]:
        if isinstance(index, slice):
            return [EngineReport(self, row) for row in range(*index.indices(self.rows))]
        row = index + self.rows if index < 0 else index
        if not 0 <= row < self.rows:
            raise IndexError(f"row {index} out of range for batch of {self.rows}")
        return EngineReport(self, row)

    def __iter__(self) -> Iterator["EngineReport"]:
        return (EngineReport(self, row) for row in range(self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def error(self, test_id: str, row: int) -> Optional[str]:
        """The message ``test_id`` rejected ``row`` with, if it did."""
        errors = self.errors.get(test_id)
        if errors is None or isinstance(errors, str):
            return errors
        return errors.get(row)

    def passes(self, alpha: float) -> np.ndarray:
        """``(rows, tests)`` bool: each test's p-values at each row all reach
        ``alpha`` — :meth:`TestResult.passed`'s rule, as
        ``(p >= alpha).all(axis=1)`` per test.  True where the test has no
        result for the row (its errors are reported apart)."""
        _check_alpha(alpha)
        passes = np.ones((self.rows, len(self.test_ids)), dtype=bool)
        for column, test_id in enumerate(self.test_ids):
            decision = self.decisions.get(test_id)
            if decision is not None:
                passes[:, column] = (decision.p_values >= alpha).all(axis=1)
        return passes

    def rejected(self, alpha: float) -> np.ndarray:
        """``(rows,)`` bool: rows some test failed at ``alpha`` (one
        comparison over every test's p-values) or rejected with an error."""
        _check_alpha(alpha)
        p_values = [decision.p_values for decision in self.decisions.values()]
        if p_values:
            rejected = ~(np.hstack(p_values) >= alpha).all(axis=1)
        else:
            rejected = np.zeros(self.rows, dtype=bool)
        if self.errors:
            rejected |= self.errored()
        return rejected

    def errored(self) -> np.ndarray:
        """``(rows,)`` bool: rows some test rejected with an error."""
        errored = np.zeros(self.rows, dtype=bool)
        for errors in self.errors.values():
            if isinstance(errors, str):
                errored[:] = True
            else:
                errored[list(errors)] = True
        return errored


class _RowResults(Mapping[str, TestResult]):
    """One row's results by test id, each rebuilt when it is read."""

    __slots__ = ("_reports", "_row", "_ids")

    def __init__(self, reports: BatchReports, row: int):
        self._reports = reports
        self._row = row
        self._ids = [
            test_id for test_id in reports.test_ids
            if test_id in reports.decisions and reports.error(test_id, row) is None
        ]

    def __getitem__(self, test_id: str) -> TestResult:
        if test_id not in self._ids:
            raise KeyError(test_id)
        return self._reports.decisions[test_id].result(self._row)

    def __contains__(self, test_id: object) -> bool:
        return test_id in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class EngineReport:
    """Per-sequence outcome of a batch run, keyed by canonical test id.

    A row view over a :class:`BatchReports`: ``results`` rebuilds a test's
    :class:`~repro.nist.common.TestResult` when it is read, and
    :meth:`passed`/:meth:`failing_tests` read the p-value arrays.
    """

    __slots__ = ("_reports", "_row")

    def __init__(self, reports: BatchReports, row: int):
        self._reports = reports
        self._row = row

    @property
    def n(self) -> int:
        return self._reports.n

    @property
    def results(self) -> Mapping[str, TestResult]:
        return _RowResults(self._reports, self._row)

    @property
    def errors(self) -> Dict[str, str]:
        errors = {}
        for test_id in self._reports.errors:
            message = self._reports.error(test_id, self._row)
            if message is not None:
                errors[test_id] = message
        return errors

    def passed(self, alpha: float = 0.01) -> bool:
        """True when every test that ran accepted the randomness hypothesis."""
        return not self.failing_tests(alpha)

    def failing_tests(self, alpha: float = 0.01) -> List[str]:
        """Ids of tests that rejected the randomness hypothesis."""
        _check_alpha(alpha)
        decisions = self._reports.decisions
        return [
            test_id for test_id in self.results
            if not (decisions[test_id].p_values[self._row] >= alpha).all()
        ]

    def p_values(self) -> Dict[str, float]:
        """Primary P-value per executed test."""
        return {test_id: result.p_value for test_id, result in self.results.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EngineReport):
            return NotImplemented
        return (self.n, dict(self.results), self.errors) == (
            other.n, dict(other.results), other.errors
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EngineReport(n={self.n}, results={dict(self.results)!r}, errors={self.errors!r})"


def _describe_error(exc: Exception) -> str:
    """Error string recorded in :attr:`EngineReport.errors`.

    ``ValueError`` messages (parameter/length constraints) are self-
    explanatory; anything else keeps its exception type so an unexpected
    crash inside a test stays distinguishable from a rejected input.
    """
    if isinstance(exc, ValueError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def run_batch(
    sequences: Union[np.ndarray, PackedMatrix, BatchContext, Iterable[BitsLike]],
    tests: Optional[Sequence[TestSpec]] = None,
    parameters: Optional[Dict[TestSpec, Dict[str, object]]] = None,
    registry: Optional[TestRegistry] = None,
    skip_errors: bool = True,
) -> BatchReports:
    """Evaluate ``tests`` on every sequence in ``sequences``.

    Parameters
    ----------
    sequences:
        Iterable of equal-length bit sequences (any ``BitsLike``; a single
        sequence is a one-row batch), a 2-D ``(num_sequences, n)`` uint8
        matrix straight from
        :meth:`~repro.trng.source.EntropySource.generate_matrix` — the
        zero-copy fast path used by the block-native source layer — or a
        prepacked :class:`~repro.engine.packed.PackedMatrix` (e.g. from
        ``generate_matrix(..., packed=True)`` or the fleet scheduler), in
        which case the uint8 matrix is only materialised if a statistic
        without a packed kernel needs it.
        A prebuilt :class:`~repro.engine.context.BatchContext` — e.g. the
        preseeded window of a streaming context via
        :meth:`BatchContext.from_streaming` — is used as-is, statistics
        already cached in it included.  Sequences of different lengths
        raise ``ValueError``.
    tests:
        Test specs resolvable by the registry — canonical ids
        (``"nist.serial"``, ``"fips.poker"``, ``"hw.platform"``), NIST
        numbers, or :class:`RegisteredTest` objects.  Defaults to the 15
        NIST tests.
    parameters:
        Optional per-test keyword arguments keyed by any resolvable spec.
    registry:
        Registry to resolve specs against (default:
        :data:`~repro.engine.registry.DEFAULT_REGISTRY`).
    skip_errors:
        When True (default), any exception from a test is recorded in
        :attr:`EngineReport.errors` instead of aborting the batch, so one
        misbehaving test cannot leave the other reports partially filled.

    Returns
    -------
    BatchReports
        One :class:`EngineReport` view per input sequence, in input order,
        over the batch's columnar results.
    """
    with obs.trace("run_batch") as span:
        return _run_batch(span, sequences, tests, parameters, registry, skip_errors)


def _fold_rows(outcome: Sequence[object]) -> BatchDecision:
    """Fold per-row results (or the exceptions rows raised) into columns.

    Rows that raised become the decision's errors, and a row with fewer
    p-values than the widest pads with ``inf``.
    """
    rows = len(outcome)
    width = max(
        (len(value.p_values) for value in outcome if isinstance(value, TestResult)), default=1
    )
    results = np.empty(rows, dtype=object)
    p_values = np.full((rows, width), np.inf)
    statistic = np.full(rows, np.nan)
    errors: Dict[int, str] = {}
    for row, value in enumerate(outcome):
        if isinstance(value, Exception):
            errors[row] = _describe_error(value)
        else:
            results[row] = value
            p_values[row, : len(value.p_values)] = value.p_values  # type: ignore[attr-defined]
            statistic[row] = value.statistic  # type: ignore[attr-defined]
    return BatchDecision(p_values, statistic, (results,), _same_result, errors)


def _same_result(result: TestResult) -> TestResult:
    return result


def _run_row(
    test: RegisteredTest, context: SequenceContext, kwargs: Dict[str, object], skip_errors: bool
) -> object:
    """One row through the test's scalar runner: its result, or the
    exception it raised (``skip_errors``)."""
    try:
        return test.run(context, **kwargs)
    except Exception as exc:  # noqa: BLE001 - see skip_errors docs
        if not skip_errors:
            raise
        return exc


def _run_batch(
    span: obs.Span,
    sequences: Union[np.ndarray, PackedMatrix, BatchContext, Iterable[BitsLike]],
    tests: Optional[Sequence[TestSpec]],
    parameters: Optional[Dict[TestSpec, Dict[str, object]]],
    registry: Optional[TestRegistry],
    skip_errors: bool,
) -> BatchReports:
    """The traced body of :func:`run_batch`; ``span`` is its root span."""
    registry = registry if registry is not None else DEFAULT_REGISTRY
    if isinstance(sequences, (BatchContext, PackedMatrix)):
        batch = BatchContext.from_sequences(sequences)
    else:
        # Raw input is validated and stacked into a context: the pack stage.
        with obs.span("pack"):
            batch = BatchContext.from_sequences(sequences)
    rows = batch.num_sequences
    if rows == 0:
        return BatchReports(batch.n, 0, (), {}, {})
    specs = list(tests) if tests is not None else sorted(NIST_NUMBER_TO_ID)
    # Dedupe after resolution (first occurrence wins): the same test
    # given twice — e.g. by number and by id alias — would otherwise run
    # twice and silently overwrite its own result.
    resolved: List[RegisteredTest] = []
    seen_ids = set()
    for spec in specs:
        test = registry.resolve(spec)
        if test.id not in seen_ids:
            seen_ids.add(test.id)
            resolved.append(test)
    params: Dict[str, Dict[str, object]] = {}
    for spec, kwargs in (parameters or {}).items():
        test_id = registry.resolve(spec).id
        if test_id in params and params[test_id] != dict(kwargs):
            raise ValueError(
                f"conflicting parameters for test {test_id!r}: "
                "the same test was keyed under multiple aliases"
            )
        params[test_id] = dict(kwargs)
    _BITS_EVALUATED.inc(batch.n * rows)

    decisions: Dict[str, BatchDecision] = {}
    errors: Dict[str, _Errors] = {}
    paths: Dict[str, str] = {}
    seconds: Dict[str, float] = {}
    contexts: Optional[Tuple[SequenceContext, ...]] = None
    # Each test's route and wall time are attributes of the root span, so
    # the span and metric count per batch do not grow with the tests.
    span.attributes.update(paths=paths, seconds=seconds)
    for test in resolved:
        kwargs = params.get(test.id, {})
        start = obs.clock()
        outcome: Union[None, Exception, BatchOutcome, List[object]] = None
        if test.batch_runner is not None:
            try:
                outcome = test.run_batch(batch, **kwargs)
            except BatchFallback:
                # Parameters outside the kernel's fast path, or one row:
                # run this one test per sequence.
                pass
            except Exception as exc:  # noqa: BLE001 - see skip_errors docs
                if not skip_errors:
                    raise
                # Batch runners validate parameters once for the whole
                # batch (all rows share n), so the error is uniform.
                outcome = exc
        if outcome is None:
            paths[test.id] = "inline"
            if contexts is None:
                contexts = batch.contexts()
            outcome = [_run_row(test, context, kwargs, skip_errors) for context in contexts]
        else:
            paths[test.id] = "batched"
        if isinstance(outcome, Exception):
            errors[test.id] = _describe_error(outcome)
        else:
            decision = outcome if isinstance(outcome, BatchDecision) else _fold_rows(outcome)
            decisions[test.id] = decision
            if decision.errors:
                errors[test.id] = decision.errors
        seconds[test.id] = obs.clock() - start
    span.attributes["kernels"] = dict(batch.kernel_calls)
    for path, count in Counter(paths.values()).items():
        _TESTS_TOTAL.inc(rows * count, path=path)
    return BatchReports(batch.n, rows, list(paths), decisions, errors)
