"""Unit tests of the shared-statistic contexts (SequenceContext/BatchContext)."""

import numpy as np
import pytest

from repro.engine import BatchContext, SequenceContext
from repro.fips.battery import _run_lengths
from repro.nist.common import pattern_counts
from repro.nist.cusum import random_walk_extremes
from repro.nist.longest_run import longest_run_of_ones
from repro.nist.runs import count_runs
from repro.trng import AlternatingSource, BiasedSource, IdealSource


@pytest.fixture(scope="module")
def sample_bits():
    return IdealSource(seed=4242).generate(2048).bits


@pytest.fixture(scope="module")
def sample_rows():
    """Diverse equal-length rows: ideal, biased, alternating, constant."""
    rows = [
        IdealSource(seed=9001).generate(1024).bits,
        BiasedSource(0.7, seed=9002).generate(1024).bits,
        AlternatingSource().generate(1024).bits,
        np.ones(1024, dtype=np.uint8),
        np.zeros(1024, dtype=np.uint8),
    ]
    return rows


class TestSequenceContext:
    def test_basic_counts(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.n == sample_bits.size
        assert context.ones == int(sample_bits.sum())
        assert context.zeros == context.n - context.ones

    def test_walk_extremes_match_reference(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.walk_extremes() == random_walk_extremes(sample_bits)

    def test_num_runs_matches_reference(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.num_runs() == count_runs(sample_bits)

    @pytest.mark.parametrize("block_length", [8, 64, 100, 128])
    def test_block_sums_match_chunked_sums(self, sample_bits, block_length):
        context = SequenceContext(sample_bits)
        sums = context.block_sums(block_length)
        num_blocks = sample_bits.size // block_length
        expected = [
            int(sample_bits[i * block_length : (i + 1) * block_length].sum())
            for i in range(num_blocks)
        ]
        assert sums.tolist() == expected

    @pytest.mark.parametrize("block_length", [8, 128])
    def test_block_longest_one_runs_match_reference(self, sample_bits, block_length):
        context = SequenceContext(sample_bits)
        per_block = context.block_longest_one_runs(block_length)
        num_blocks = sample_bits.size // block_length
        expected = [
            longest_run_of_ones(sample_bits[i * block_length : (i + 1) * block_length])
            for i in range(num_blocks)
        ]
        assert per_block.tolist() == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("cyclic", [True, False])
    def test_pattern_counts_match_reference(self, sample_bits, m, cyclic):
        context = SequenceContext(sample_bits)
        expected = pattern_counts(sample_bits, m, cyclic=cyclic)
        assert np.array_equal(context.pattern_counts(m, cyclic=cyclic), expected)

    def test_template_block_counts_match_bruteforce(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        context = SequenceContext(bits)
        values = [int("".join(map(str, bits[i : i + 3])), 2) for i in range(6)]
        for value in range(8):
            template = [int(bit) for bit in format(value, "03b")]
            assert context.template_block_counts(template, 8, 1).tolist() == [
                values.count(value)
            ]

    def test_block_value_counts_match_bruteforce(self, sample_bits):
        context = SequenceContext(sample_bits)
        counts = context.block_value_counts(4)
        nibbles = sample_bits[: (sample_bits.size // 4) * 4].reshape(-1, 4)
        expected = np.bincount(nibbles @ np.array([8, 4, 2, 1]), minlength=16)
        assert np.array_equal(counts, expected)

    def test_run_length_histogram_matches_fips_reference(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.run_length_histogram(cap=6) == _run_lengths(sample_bits)

    def test_longest_run_overall(self):
        context = SequenceContext("1100011110001")
        assert context.longest_run() == 4
        assert SequenceContext(np.zeros(7, dtype=np.uint8)).longest_run() == 7

    def test_memoization_returns_same_object(self, sample_bits):
        # Statistics are memoized once per batch: repeat reads are views of
        # the same cached array, not recomputations.
        context = SequenceContext(sample_bits)
        assert context.pattern_counts(4).base is context.pattern_counts(4).base
        assert context.block_sums(128).base is context.block_sums(128).base
        assert context.pattern_counts(4).base is not None

    def test_accepts_any_bitslike(self):
        assert SequenceContext("1011").ones == 3
        assert SequenceContext([1, 0, 1, 1]).ones == 3


class TestBatchContext:
    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            BatchContext(np.zeros(16, dtype=np.uint8))

    def test_row_out_of_range(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        with pytest.raises(IndexError):
            batch.context(len(sample_rows))

    def test_every_statistic_matches_solo_context(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        for row, context in zip(sample_rows, batch.contexts()):
            solo = SequenceContext(row)
            assert context.ones == solo.ones
            assert context.walk_extremes() == solo.walk_extremes()
            assert context.num_runs() == solo.num_runs()
            assert np.array_equal(context.block_sums(128), solo.block_sums(128))
            assert np.array_equal(
                context.block_longest_one_runs(8), solo.block_longest_one_runs(8)
            )
            for m in (1, 3, 4):
                assert np.array_equal(
                    context.pattern_counts(m), solo.pattern_counts(m)
                )
            template = (0,) * 8 + (1,)
            assert np.array_equal(
                context.template_block_counts(template, 128, 4),
                solo.template_block_counts(template, 128, 4),
            )
            assert np.array_equal(
                context.block_value_counts(4), solo.block_value_counts(4)
            )
            assert context.run_length_histogram() == solo.run_length_histogram()
            assert context.longest_run() == solo.longest_run()

    def test_batch_statistics_are_shared(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        first = batch.ones()
        assert batch.ones() is first  # computed once for the whole batch
