"""Packed pattern and template counters against the scalar oracles.

Tests 7, 8, 11 and 12 read their counters from
:func:`repro.engine.packed.cyclic_pattern_counts` and
:func:`repro.engine.packed.template_block_counts` (through
:class:`~repro.engine.context.BatchContext`).  These tests pin both kernels
to the scalar ``repro.nist`` reference counters — ``pattern_counts``,
``count_overlapping`` and ``count_non_overlapping`` — across the shapes
that stress the word logic: ``n`` around word edges, ``n`` equal to the
pattern length, all-zeros and all-ones rows, single-row batches, block
lengths that are not multiples of 64, periodic templates, and streaming
windows at arbitrary word alignment.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.engine import packed as P
from repro.engine.batch import run_batch
from repro.engine.context import BatchContext, SequenceContext
from repro.engine.streaming import StreamingBatchContext
from repro.nist.approximate_entropy import approximate_entropy_test
from repro.nist.common import pattern_counts
from repro.nist.nonoverlapping import (
    count_non_overlapping,
    non_overlapping_template_test,
    non_overlapping_template_test_from_context,
)
from repro.nist.overlapping import (
    count_overlapping,
    overlapping_template_test,
    overlapping_template_test_from_context,
)
from repro.nist.serial import serial_test

LENGTHS = [63, 64, 65, 127, 1000, 8 * 1032 + 5]


def largest_m(n):
    """Largest pattern length the serial (``2**m <= n``) and approximate
    entropy (its ``m + 1`` counters at that ``m``) tests read at ``n``."""
    return min(n, int(math.log2(n)) + 1)


def batch_rows(n, seed):
    """Random rows, a biased row and the two constant rows, stacked."""
    rng = np.random.default_rng(seed)
    return np.vstack([
        (rng.random((2, n)) < 0.5).astype(np.uint8),
        (rng.random((1, n)) < 0.9).astype(np.uint8),
        np.zeros((1, n), dtype=np.uint8),
        np.ones((1, n), dtype=np.uint8),
    ])


def block_oracle(row, template, block_length, num_blocks):
    return [
        count_overlapping(row[b * block_length : (b + 1) * block_length], template)
        for b in range(num_blocks)
    ]


class TestCyclicPatternCounts:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_every_accepted_m_matches_oracle(self, n):
        matrix = batch_rows(n, seed=n)
        packed = P.pack_matrix(matrix)
        for m in range(1, largest_m(n) + 1):
            counts = P.cyclic_pattern_counts(packed, m)
            for row, got in zip(matrix, counts):
                assert np.array_equal(got, pattern_counts(row, m, cyclic=True)), (n, m)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_n_equal_to_m(self, m):
        matrix = batch_rows(m, seed=m)
        counts = P.cyclic_pattern_counts(P.pack_matrix(matrix), m)
        for row, got in zip(matrix, counts):
            assert np.array_equal(got, pattern_counts(row, m, cyclic=True))

    @pytest.mark.parametrize("m", [P.PLANE_TREE_MAX_M, P.PLANE_TREE_MAX_M + 1])
    def test_both_sides_of_the_crossover(self, m):
        matrix = batch_rows(3000, seed=m)
        counts = P.cyclic_pattern_counts(P.pack_matrix(matrix), m)
        for row, got in zip(matrix, counts):
            assert np.array_equal(got, pattern_counts(row, m, cyclic=True))

    def test_rejects_out_of_range_m(self):
        packed = P.pack_matrix(batch_rows(10, seed=0))
        for m in (0, 11):
            with pytest.raises(ValueError):
                P.cyclic_pattern_counts(packed, m)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_property_single_row(self, bits, m):
        m = min(m, len(bits))
        row = np.array(bits, dtype=np.uint8)
        got = P.cyclic_pattern_counts(P.pack_matrix(row[np.newaxis, :]), m)[0]
        assert np.array_equal(got, pattern_counts(row, m, cyclic=True))


class TestContextPatternCounts:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("container", ["packed", "uint8"])
    def test_folded_counts_match_oracle(self, n, container):
        """Counts folded down from the longest cached pattern stay exact,
        whether the batch arrives prepacked or as a uint8 matrix."""
        matrix = batch_rows(n, seed=n + 1)
        batch = BatchContext(P.pack_matrix(matrix) if container == "packed" else matrix)
        top = largest_m(n)
        for m in range(top, -1, -1):
            for row, got in zip(matrix, batch.pattern_counts(m)):
                assert np.array_equal(got, pattern_counts(row, m, cyclic=True)), (n, m)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_non_cyclic_counts_match_oracle(self, n):
        matrix = batch_rows(n, seed=n + 2)
        batch = BatchContext(matrix)
        for m in range(1, min(largest_m(n), 9) + 1):
            for row, got in zip(matrix, batch.pattern_counts(m, cyclic=False)):
                assert np.array_equal(got, pattern_counts(row, m, cyclic=False)), (n, m)

    def test_single_row_and_standalone_contexts(self):
        row = batch_rows(1000, seed=7)[0]
        single = BatchContext(row[np.newaxis, :])
        solo = SequenceContext(row)
        for m in (1, 2, 3, 4, 9, 10):
            expected = pattern_counts(row, m, cyclic=True)
            assert np.array_equal(single.pattern_counts(m)[0], expected)
            assert np.array_equal(solo.pattern_counts(m), expected)

    def test_serial_and_apen_share_one_kernel_call(self):
        calls = obs.registry().get("repro_packed_kernel_invocations_total")
        before = calls.value(kernel="cyclic_pattern_counts")
        batch = BatchContext(batch_rows(4096, seed=3))
        for context in batch.contexts():
            for m in (4, 3, 2):
                context.pattern_counts(m)
            for m in (3, 4):
                context.pattern_counts(m)
        assert calls.value(kernel="cyclic_pattern_counts") - before == 1

    def test_zero_length_and_too_long_patterns(self):
        batch = BatchContext(np.zeros((2, 0), dtype=np.uint8))
        assert batch.pattern_counts(3).tolist() == [[0] * 8] * 2
        assert batch.pattern_counts(0).tolist() == [[0], [0]]
        with pytest.raises(ValueError):
            BatchContext(batch_rows(5, seed=0)).pattern_counts(6)
        with pytest.raises(ValueError):
            BatchContext(batch_rows(5, seed=0)).pattern_counts(-1)


APERIODIC = [(0, 1), (0, 0, 1), (0,) * 8 + (1,), (1, 1, 0, 1, 0, 0, 0, 0, 0, 0)]
PERIODIC = [(1, 1), (0, 1, 0), (1,) * 9, (1, 0, 1, 0, 1, 0, 1, 0, 1)]


class TestTemplateBlockCounts:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("template", APERIODIC + PERIODIC)
    def test_matches_overlapping_oracle(self, n, template):
        matrix = batch_rows(n, seed=n + len(template))
        packed = P.pack_matrix(matrix)
        m = len(template)
        for block_length in {m, 64, 100, 1032, n // 8, n}:
            if not m <= block_length <= n:
                continue
            for num_blocks in {1, n // block_length}:
                counts = P.template_block_counts(packed, template, block_length, num_blocks)
                for row, got in zip(matrix, counts):
                    assert got.tolist() == block_oracle(row, template, block_length, num_blocks)

    @pytest.mark.parametrize("template", APERIODIC)
    def test_aperiodic_counts_are_the_greedy_counts(self, template):
        matrix = batch_rows(8 * 1032 + 5, seed=11)
        counts = P.template_block_counts(P.pack_matrix(matrix), template, 1032, 8)
        for row, got in zip(matrix, counts):
            expected = [count_non_overlapping(row[b * 1032 : (b + 1) * 1032], template)
                        for b in range(8)]
            assert got.tolist() == expected

    def test_template_longer_than_a_word(self):
        row = np.ones((1, 300), dtype=np.uint8)
        row[0, 150] = 0
        counts = P.template_block_counts(P.pack_matrix(row), (1,) * 70, 150, 2)
        assert counts[0].tolist() == block_oracle(row[0], (1,) * 70, 150, 2)

    def test_rejects_bad_geometry(self):
        packed = P.pack_matrix(batch_rows(100, seed=0))
        with pytest.raises(ValueError):
            P.template_block_counts(packed, (0, 1), 50, 3)
        with pytest.raises(ValueError):
            P.template_block_counts(packed, (0, 1, 1), 2, 1)

    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=400),
        st.lists(st.integers(0, 1), min_size=1, max_size=6),
        st.integers(1, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_single_row(self, bits, template, block_length):
        row = np.array(bits, dtype=np.uint8)
        block_length = max(len(template), min(block_length, row.size))
        if block_length > row.size:
            return
        num_blocks = row.size // block_length
        got = P.template_block_counts(
            P.pack_matrix(row[np.newaxis, :]), template, block_length, num_blocks
        )[0]
        assert got.tolist() == block_oracle(row, tuple(template), block_length, num_blocks)


class TestTemplateTestsFromContext:
    @pytest.mark.parametrize("template", APERIODIC[2:] + PERIODIC[2:])
    def test_non_overlapping_p_values_identical(self, template):
        matrix = batch_rows(8 * 1032 + 5, seed=21)
        batch = BatchContext(matrix)
        for row, context in zip(matrix, batch.contexts()):
            got = non_overlapping_template_test_from_context(context, template, 8)
            assert got.p_value == non_overlapping_template_test(row, template, 8).p_value

    @pytest.mark.parametrize("block_length", [1032, 1000, 1024])
    def test_overlapping_p_values_identical(self, block_length):
        matrix = batch_rows(8 * 1032 + 5, seed=22)
        batch = BatchContext(matrix)
        for row, context in zip(matrix, batch.contexts()):
            got = overlapping_template_test_from_context(context, block_length=block_length)
            expected = overlapping_template_test(row, block_length=block_length)
            assert got.p_value == expected.p_value
            assert got.details["categories"] == expected.details["categories"]


class TestStreamingWindows:
    @pytest.mark.parametrize("pushed", [4096 + 1, 4096 + 37, 4096 + 63, 4096 + 64, 5000])
    def test_window_counters_at_any_alignment(self, pushed):
        rng = np.random.default_rng(pushed)
        window = 1000
        history = (rng.random((3, pushed)) < 0.5).astype(np.uint8)
        stream = StreamingBatchContext(3, window, capacity_bits=2048)
        for start in range(0, pushed, 333):
            stream.push(history[:, start : start + 333])
        rows = history[:, -window:]
        context = stream.window_context()
        for row, got in zip(rows, context.pattern_counts(6)):
            assert np.array_equal(got, pattern_counts(row, 6, cyclic=True))
        template = (0,) * 8 + (1,)
        for row, got in zip(rows, context.template_block_counts(template, 125, 8)):
            assert got.tolist() == block_oracle(row, template, 125, 8)

    def test_window_run_batch_matches_oracles(self):
        rng = np.random.default_rng(9)
        window = 8 * 1032 + 5
        history = (rng.random((2, window + 77)) < 0.5).astype(np.uint8)
        stream = StreamingBatchContext(2, window)
        stream.push(history)
        reports = run_batch(stream.window_context(), tests=[7, 8, 11, 12])
        for row, report in zip(history[:, -window:], reports):
            results = report.results
            assert results["nist.non_overlapping_template"].p_value == (
                non_overlapping_template_test(row).p_value
            )
            assert results["nist.overlapping_template"].p_value == (
                overlapping_template_test(row).p_value
            )
            assert results["nist.serial"].p_values == serial_test(row).p_values
            assert results["nist.approximate_entropy"].p_value == (
                approximate_entropy_test(row).p_value
            )
