"""Batch executor: many sequences, one shared-statistic context, in process.

``run_batch`` is the engine's answer to the ROADMAP's many-sequence
monitoring traffic: instead of evaluating sequences one at a time (each test
re-scanning the same bitstream), every input — a list of sequences (one
sequence included), a bit matrix, a packed matrix or a prebuilt context —
becomes one :class:`~repro.engine.context.BatchContext` whose statistics are
computed with single vectorised passes over the whole batch.  Each test then
takes one of two routes, recorded as the ``path`` attribute of its
``dispatch`` span and the ``repro_engine_tests_total{path}`` counter:

* ``batched`` — the test's batch runner evaluates the whole batch at once:
  * the seven shared-statistic tests (frequency, block frequency, runs,
    longest run, serial, approximate entropy, cusum) decide *by key*: rows
    are grouped by the complete integer input of the test's scalar decision
    helper (the hardware counters of the paper), the helper runs once per
    distinct key and equal rows share its result
    (:func:`~repro.nist.common.decide_per_key`); the ``dispatch`` span's
    ``keys`` attribute counts the distinct decisions;
  * the five heavyweight tests (rank, DFT, universal, linear complexity,
    random excursions) run batch-native kernels in
    :mod:`repro.engine.heavy`;
* ``inline`` — the test's scalar runner runs per sequence on the shared
  statistics: the template tests, the FIPS tests, ``hw.platform``, and any
  heavy-test geometry whose kernel raises
  :class:`~repro.engine.heavy.BatchFallback`.

One ``fold`` span then files every test's outcomes into the per-sequence
reports.  Results are bit-identical to running each test directly on each
sequence — asserted by ``tests/test_engine_parity.py``,
``tests/test_heavy_batch_parity.py`` and ``tests/test_keyed_decisions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.engine.context import BatchContext
from repro.engine.heavy import BatchFallback
from repro.engine.packed import PackedMatrix
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    NIST_NUMBER_TO_ID,
    RegisteredTest,
    TestRegistry,
    TestSpec,
)
from repro.nist.common import BitsLike, TestResult

__all__ = ["EngineReport", "run_batch"]

_TEST_SECONDS = obs.histogram(
    "repro_engine_test_seconds",
    "Wall time of one test's dispatch over a whole batch, by canonical test id.",
    labels=("test",),
)
_TESTS_TOTAL = obs.counter(
    "repro_engine_tests_total",
    "Per-sequence test evaluations by execution path (batched/inline).",
    labels=("path",),
)
_BITS_EVALUATED = obs.counter(
    "repro_engine_bits_evaluated_total",
    "Bits entering run_batch (sequences x sequence length).",
)


@dataclass
class EngineReport:
    """Per-sequence outcome of a batch run, keyed by canonical test id."""

    n: int
    results: Dict[str, TestResult] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)

    def passed(self, alpha: float = 0.01) -> bool:
        """True when every test that ran accepted the randomness hypothesis."""
        return all(result.passed(alpha) for result in self.results.values())

    def failing_tests(self, alpha: float = 0.01) -> List[str]:
        """Ids of tests that rejected the randomness hypothesis."""
        return [tid for tid, result in self.results.items() if not result.passed(alpha)]

    def p_values(self) -> Dict[str, float]:
        """Primary P-value per executed test."""
        return {tid: result.p_value for tid, result in self.results.items()}


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
) -> List[EngineReport]:
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
    list of EngineReport
        One report per input sequence, in input order.
    """
    with obs.trace("run_batch"):
        return _run_batch(sequences, tests, parameters, registry, skip_errors)


def _run_batch(
    sequences: Union[np.ndarray, PackedMatrix, BatchContext, Iterable[BitsLike]],
    tests: Optional[Sequence[TestSpec]],
    parameters: Optional[Dict[TestSpec, Dict[str, object]]],
    registry: Optional[TestRegistry],
    skip_errors: bool,
) -> List[EngineReport]:
    """The traced body of :func:`run_batch` (runs under its root span)."""
    registry = registry if registry is not None else DEFAULT_REGISTRY
    with obs.span("pack"):
        batch = BatchContext.from_sequences(sequences)
        if batch.num_sequences == 0:
            return []
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
        contexts = batch.contexts()
        reports = [EngineReport(n=batch.n) for _ in contexts]
    _BITS_EVALUATED.inc(batch.n * len(reports))

    # Per test, in test order: one outcome per row (a result, or the
    # exception that row raised), or one exception for the whole batch.
    outcomes: List[Tuple[str, Union[Exception, Sequence[object]]]] = []
    evaluated: Dict[str, int] = {}

    def run_inline(test: RegisteredTest, kwargs: Dict[str, object]) -> None:
        # Collecting outcomes before the fold keeps skip_errors=False
        # raising from inside the dispatch span, where the failure happened.
        rows: List[object] = []
        with obs.span("dispatch", test=test.id, path="inline") as dispatch_span:
            for context in contexts:
                try:
                    rows.append(test.run(context, **kwargs))
                except Exception as exc:  # noqa: BLE001 - see skip_errors docs
                    if not skip_errors:
                        raise
                    rows.append(exc)
        _TEST_SECONDS.observe(dispatch_span.duration_s, test=test.id)
        evaluated["inline"] = evaluated.get("inline", 0) + len(reports)
        outcomes.append((test.id, rows))

    for test in resolved:
        kwargs = params.get(test.id, {})
        if test.batch_runner is None:
            run_inline(test, kwargs)
            continue
        try:
            with obs.span("dispatch", test=test.id, path="batched") as dispatch_span:
                results = test.run_batch(batch, **kwargs)
                if obs.is_enabled():
                    # Rows with equal keys share one result object.
                    dispatch_span.attributes["keys"] = len({id(r) for r in results})
        except BatchFallback:
            # Parameters outside the kernel's fast path: rerun this one
            # test per sequence.
            run_inline(test, kwargs)
            continue
        except Exception as exc:  # noqa: BLE001 - see skip_errors docs
            if not skip_errors:
                raise
            # Batch runners validate parameters once for the whole batch
            # (all rows share n), so the error is uniform.
            outcomes.append((test.id, exc))
        else:
            _TEST_SECONDS.observe(dispatch_span.duration_s, test=test.id)
            outcomes.append((test.id, results))
        evaluated["batched"] = evaluated.get("batched", 0) + len(reports)

    for path, count in evaluated.items():
        _TESTS_TOTAL.inc(count, path=path)
    with obs.span("fold", tests=len(outcomes)):
        for test_id, outcome in outcomes:
            if isinstance(outcome, Exception):
                message = _describe_error(outcome)
                for report in reports:
                    report.errors[test_id] = message
                continue
            for report, value in zip(reports, outcome):
                if isinstance(value, Exception):
                    report.errors[test_id] = _describe_error(value)
                else:
                    report.results[test_id] = value  # type: ignore[assignment]

    return reports
