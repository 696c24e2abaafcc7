"""Bit-identity of the batch-native heavy kernels against the scalar suite.

The five heavyweight NIST tests (rank, DFT, universal, linear complexity,
random excursions + variant) run through :mod:`repro.engine.heavy`'s
batch-native kernels on packed bit-planes.  These tests pin the contract of
that path on deliberately awkward inputs — lengths that are not multiples of
64 (live word-padding bits), degenerate all-zeros / all-ones streams,
single-row batches, inapplicably short sequences — and the dispatch
semantics, read off the ``path`` attribute of each test's ``dispatch`` span:
every input container takes ``"batched"``, a
:class:`~repro.engine.heavy.BatchFallback` geometry falls back to
``"inline"`` per-sequence evaluation, and error messages match the scalar
reference verbatim.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.engine import run_batch
from repro.engine.heavy import BatchFallback, batch_rank
from repro.engine.context import BatchContext
from repro.engine.packed import pack_matrix
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.nist.dft import dft_test
from repro.nist.linear_complexity import linear_complexity_test
from repro.nist.random_excursions import random_excursions_test
from repro.nist.random_excursions_variant import random_excursions_variant_test
from repro.nist.rank import binary_matrix_rank_test
from repro.nist.universal import universal_test

#: The five heavyweight tests with batch-native kernels.
HEAVY_TESTS = [5, 6, 9, 10, 14, 15]

#: Scalar reference entry point per NIST number.
REFERENCES = {
    5: binary_matrix_rank_test,
    6: dft_test,
    9: universal_test,
    10: linear_complexity_test,
    14: random_excursions_test,
    15: random_excursions_variant_test,
}

#: Parameters that make every heavy test applicable at a few kilobits.
SMALL_PARAMS = {
    9: {"block_length": 6, "init_blocks": 32},
    10: {"block_length": 64},
}


def _rows(seed: int, rows: int, n: int) -> np.ndarray:
    if seed < 0:  # constant streams
        return np.full((rows, n), -seed - 1, dtype=np.uint8)
    return np.random.default_rng(seed).integers(0, 2, size=(rows, n), dtype=np.uint8)


def _assert_identical(result, reference):
    assert result.name == reference.name
    assert result.statistic == reference.statistic
    assert result.p_value == reference.p_value
    assert result.p_values == reference.p_values
    assert repr(result.details) == repr(reference.details)


def _run_traced(sequences, **kwargs):
    """``run_batch`` plus the final dispatch path of each test, from its trace."""
    obs.clear_traces()
    reports = run_batch(sequences, **kwargs)
    root = [root for root in obs.TRACER.traces() if root.name == "run_batch"][-1]
    paths = {
        span.attributes["test"]: span.attributes["path"]
        for span in root.children
        if span.name == "dispatch"
    }
    obs.clear_traces()
    return reports, paths


def _check_parity(matrix: np.ndarray, tests=HEAVY_TESTS, params=SMALL_PARAMS):
    """Packed-batch reports must equal the scalar references bit for bit."""
    reports, paths = _run_traced(pack_matrix(matrix), tests=tests, parameters=params)
    assert len(reports) == matrix.shape[0]
    for row, report in enumerate(reports):
        for number in tests:
            test_id = NIST_NUMBER_TO_ID[number]
            reference = REFERENCES[number](matrix[row], **params.get(number, {}))
            _assert_identical(report.results[test_id], reference)
            assert paths[test_id] == "batched"
    return reports


class TestAwkwardShapeParity:
    def test_non_multiple_of_64_length(self):
        # 4096 + 37 bits: the last packed word carries 37 live bits and 27
        # zero-pad bits that every kernel must mask out.
        _check_parity(_rows(1, rows=5, n=4096 + 37))

    def test_word_aligned_length(self):
        _check_parity(_rows(2, rows=4, n=4096))

    def test_single_row_batch(self):
        _check_parity(_rows(3, rows=1, n=2048 + 13))

    def test_all_zeros_and_all_ones(self):
        # Degenerate streams: rank 0 matrices, a DC-only spectrum, zero
        # linear complexity (all-zeros), single-cycle excursion walks.
        _check_parity(_rows(-1, rows=2, n=1500))  # all zeros
        _check_parity(_rows(-2, rows=2, n=1500))  # all ones

    def test_mixed_degenerate_and_random_rows(self):
        matrix = np.vstack(
            [
                _rows(-1, rows=1, n=3333),
                _rows(7, rows=2, n=3333),
                _rows(-2, rows=1, n=3333),
            ]
        )
        _check_parity(matrix)


class TestShortSequenceErrors:
    def test_error_messages_match_scalar(self):
        # 100 bits: too short for rank (needs 1024) and universal's default
        # parameters; the per-report error strings must match the scalar
        # ValueError messages verbatim.
        matrix = _rows(4, rows=3, n=100)
        reports = run_batch(pack_matrix(matrix), tests=[5, 9])
        for row, report in enumerate(reports):
            for number in (5, 9):
                test_id = NIST_NUMBER_TO_ID[number]
                with pytest.raises(ValueError) as excinfo:
                    REFERENCES[number](matrix[row])
                assert report.errors[test_id] == str(excinfo.value)
                assert test_id not in report.results

    def test_skip_errors_false_raises_scalar_error(self):
        matrix = _rows(5, rows=2, n=100)
        with pytest.raises(ValueError, match="need at least 1024 bits"):
            run_batch(pack_matrix(matrix), tests=[5], skip_errors=False)


class TestDispatchSemantics:
    def test_batch_fallback_geometry_runs_inline(self):
        # Non-32x32 rank matrices are outside the packed kernel's fast path:
        # batch_rank raises BatchFallback and the executor falls back to the
        # per-sequence scalar, still bit-identical.
        matrix = _rows(8, rows=3, n=2048)
        batch = BatchContext(pack_matrix(matrix))
        with pytest.raises(BatchFallback):
            batch_rank(batch, matrix_rows=16, matrix_cols=16)
        params = {5: {"matrix_rows": 16, "matrix_cols": 16}}
        reports, paths = _run_traced(pack_matrix(matrix), tests=[5], parameters=params)
        test_id = NIST_NUMBER_TO_ID[5]
        assert paths[test_id] == "inline"
        for row, report in enumerate(reports):
            reference = binary_matrix_rank_test(
                matrix[row], matrix_rows=16, matrix_cols=16
            )
            _assert_identical(report.results[test_id], reference)

    def test_packed_batch_never_pools_heavy_tests(self):
        # The input container never selects the route: a uint8 matrix, a
        # packed matrix and a one-sequence list all take the batch-native
        # kernels, and the results match the scalar references.
        matrix = _rows(10, rows=2, n=2048)
        for sequences in (matrix, pack_matrix(matrix), [matrix[0]]):
            reports, paths = _run_traced(
                sequences, tests=HEAVY_TESTS, parameters=SMALL_PARAMS
            )
            for number in HEAVY_TESTS:
                test_id = NIST_NUMBER_TO_ID[number]
                assert paths[test_id] == "batched"
                for row, report in enumerate(reports):
                    reference = REFERENCES[number](
                        matrix[row], **SMALL_PARAMS.get(number, {})
                    )
                    _assert_identical(report.results[test_id], reference)
