"""Packed bit-planes: round-trips and bit-exact parity with independent references.

The 64-bits-per-word kernels of :mod:`repro.engine.packed` must produce
*bit-identical* statistics (and therefore P-values) to brute-force numpy
counts and the scalar ``repro.nist`` oracles for every matrix shape —
including the awkward ones: ``n`` not a multiple of 64 (tail bits in the
last word), a single row, an empty tail, all-zeros and all-ones rows.  These
tests sweep those shapes with seeded random matrices and
hypothesis-generated sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import packed as P
from repro.engine.batch import run_batch
from repro.engine.context import BatchContext
from repro.engine.registry import NIST_NUMBER_TO_ID
import repro.nist as nist
from repro.nist.cusum import random_walk_extremes
from repro.nist.longest_run import longest_run_of_ones
from repro.nist.runs import count_runs
from repro.trng.ideal import IdealSource

#: Shapes chosen to stress the word-boundary logic: multiples of 64,
#: off-by-one around them, sub-word rows, and byte-but-not-word multiples.
AWKWARD_SHAPES = [
    (1, 1), (1, 63), (1, 64), (1, 65), (3, 7), (2, 127), (4, 128),
    (5, 129), (1, 1000), (3, 20000), (2, 4096), (7, 130),
]


def random_matrix(rows, n, seed=0, p=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, n)) < p).astype(np.uint8)


def special_matrices(rows, n):
    yield np.zeros((rows, n), dtype=np.uint8)
    yield np.ones((rows, n), dtype=np.uint8)
    yield random_matrix(rows, n, seed=rows * 1000 + n)
    yield random_matrix(rows, n, seed=rows * 1000 + n + 1, p=0.9)


class TestRoundTrip:
    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_pack_unpack_exact(self, rows, n):
        for matrix in special_matrices(rows, n):
            packed = P.pack_matrix(matrix)
            assert packed.num_words == (n + 63) // 64
            assert np.array_equal(P.unpack_matrix(packed), matrix)

    def test_empty_rows_and_zero_bits(self):
        empty = np.zeros((0, 40), dtype=np.uint8)
        assert P.unpack_matrix(P.pack_matrix(empty)).shape == (0, 40)
        zero_bits = np.zeros((3, 0), dtype=np.uint8)
        packed = P.pack_matrix(zero_bits)
        assert packed.num_words == 0
        assert P.unpack_matrix(packed).shape == (3, 0)

    def test_nbytes_is_an_eighth(self):
        matrix = random_matrix(16, 4096)
        assert P.pack_matrix(matrix).nbytes == matrix.nbytes // 8

    def test_keep_source_skips_unpack(self):
        matrix = random_matrix(2, 100)
        packed = P.pack_matrix(matrix, keep_source=True)
        assert packed.unpack() is matrix

    def test_rejects_non_bits_and_bad_tail(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            P.pack_matrix(np.full((2, 8), 2, dtype=np.uint8))
        with pytest.raises(ValueError, match="2-D"):
            P.pack_matrix(np.zeros(8, dtype=np.uint8))
        dirty = np.full((1, 1), 0xFF, dtype="<u8")
        with pytest.raises(ValueError, match="tail bits"):
            P.PackedMatrix(dirty, 4)

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, bits):
        matrix = np.array([bits], dtype=np.uint8)
        assert np.array_equal(P.unpack_matrix(P.pack_matrix(matrix)), matrix)


class TestPopcount:
    def test_lut_fallback_matches_bitwise_count(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 1 << 63, size=(5, 17), dtype=np.uint64)
        via_lut = P.popcount(values, force_lut=True)
        assert via_lut.dtype == np.uint8
        assert np.array_equal(via_lut, np.bitwise_count(values))

    def test_lut_fallback_other_dtypes(self):
        for dtype in (np.uint8, np.uint16, np.uint32):
            values = np.arange(200, dtype=dtype)
            assert np.array_equal(
                P.popcount(values, force_lut=True), np.bitwise_count(values)
            )


class TestKernelParity:
    """Each packed kernel against a brute-force numpy count, shape by shape."""

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_ones_count(self, rows, n):
        for matrix in special_matrices(rows, n):
            assert np.array_equal(
                P.ones_count(P.pack_matrix(matrix)),
                matrix.sum(axis=1, dtype=np.int64),
            )

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_transition_counts(self, rows, n):
        for matrix in special_matrices(rows, n):
            reference = np.count_nonzero(
                np.diff(matrix.astype(np.int8), axis=1), axis=1
            ).astype(np.int64)
            assert np.array_equal(
                P.transition_counts(P.pack_matrix(matrix)), reference
            )

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_walk_extremes(self, rows, n):
        for matrix in special_matrices(rows, n):
            walk = np.cumsum(2 * matrix.astype(np.int64) - 1, axis=1)
            s_max, s_min, s_final = P.walk_extremes(P.pack_matrix(matrix))
            assert np.array_equal(s_max, walk.max(axis=1))
            assert np.array_equal(s_min, walk.min(axis=1))
            assert np.array_equal(s_final, walk[:, -1])

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_last_bits(self, rows, n):
        for matrix in special_matrices(rows, n):
            assert np.array_equal(P.last_bits(P.pack_matrix(matrix)), matrix[:, -1])

    @pytest.mark.parametrize("block_length", [8, 16, 32, 64, 128, 4096])
    def test_block_ones(self, block_length):
        n = block_length * 3 + (block_length // 2)  # trailing partial block
        matrix = random_matrix(4, n, seed=block_length)
        packed = P.pack_matrix(matrix)
        assert P.supports_block_ones(block_length, n)
        num_blocks = n // block_length
        reference = (
            matrix[:, : num_blocks * block_length]
            .reshape(4, num_blocks, block_length)
            .sum(axis=2, dtype=np.int64)
        )
        assert np.array_equal(P.block_ones(packed, block_length), reference)

    def test_block_ones_unsupported_geometry(self):
        matrix = random_matrix(2, 100)
        assert not P.supports_block_ones(20, 100)
        with pytest.raises(ValueError, match="no packed kernel"):
            P.block_ones(P.pack_matrix(matrix), 20)

    @pytest.mark.parametrize("block_length", [8, 128, 512, 1000, 10000])
    def test_block_longest_one_runs(self, block_length):
        n = block_length * 2 + block_length // 4
        for matrix in special_matrices(3, n):
            packed = P.pack_matrix(matrix)
            assert P.supports_block_longest_one_runs(block_length, n)
            result = P.block_longest_one_runs(packed, block_length)
            num_blocks = n // block_length
            for row in range(matrix.shape[0]):
                for block in range(num_blocks):
                    bits = matrix[row, block * block_length : (block + 1) * block_length]
                    # Longest run of ones, by run-length encoding.
                    longest = max(
                        (len(s) for s in "".join(map(str, bits)).split("0")),
                        default=0,
                    )
                    assert result[row, block] == longest

    def test_walk_extremes_rejects_empty(self):
        with pytest.raises(ValueError):
            P.walk_extremes(P.pack_matrix(np.zeros((2, 0), dtype=np.uint8)))
        with pytest.raises(ValueError):
            P.last_bits(P.pack_matrix(np.zeros((2, 0), dtype=np.uint8)))


def block_reference(matrix, block_length):
    """Per-row, per-block ``(ones, longest run of ones)`` by scalar scans."""
    num_blocks = matrix.shape[1] // block_length
    blocks = [
        [row[b * block_length : (b + 1) * block_length] for b in range(num_blocks)]
        for row in matrix
    ]
    ones = np.array([[int(block.sum()) for block in row] for row in blocks], dtype=np.int64)
    longest = np.array(
        [[longest_run_of_ones(block) for block in row] for row in blocks], dtype=np.int64
    )
    return ones.reshape(len(matrix), num_blocks), longest.reshape(len(matrix), num_blocks)


class TestBatchContextParity:
    """Context statistics against the scalar oracles, row by row."""

    @pytest.mark.parametrize("rows,n", [(3, 100), (1, 4096), (5, 20000), (2, 127)])
    def test_shared_statistics_match(self, rows, n):
        matrix = random_matrix(rows, n, seed=n)
        ctx = BatchContext(matrix)
        assert ctx.ones().tolist() == [int(row.sum()) for row in matrix]
        assert ctx.num_runs().tolist() == [count_runs(row) for row in matrix]
        assert list(zip(*(part.tolist() for part in ctx.walk_extremes()))) == [
            random_walk_extremes(row) for row in matrix
        ]
        for block_length in (8, 16, 32, 64):
            if block_length <= n:
                ones, longest = block_reference(matrix, block_length)
                assert np.array_equal(ctx.block_sums(block_length), ones)
                assert np.array_equal(ctx.block_longest_one_runs(block_length), longest)

    def test_unsupported_block_length_falls_back(self):
        matrix = random_matrix(2, 100, seed=5)
        ctx = BatchContext(matrix)
        # 20 has no packed kernel; the context must silently use uint8.
        assert not P.supports_block_ones(20, 100)
        assert not P.supports_block_longest_one_runs(20, 100)
        ones, longest = block_reference(matrix, 20)
        assert np.array_equal(ctx.block_sums(20), ones)
        assert np.array_equal(ctx.block_longest_one_runs(20), longest)

    def test_prepacked_input_defers_unpack(self):
        matrix = random_matrix(4, 4096, seed=9)
        packed = P.pack_matrix(matrix)  # no retained source
        ctx = BatchContext(packed)
        assert ctx._matrix is None
        ctx.ones()
        ctx.walk_extremes()
        ctx.num_runs()
        assert ctx._matrix is None  # packed kernels never touched the bytes
        assert np.array_equal(ctx.matrix, matrix)  # ...but unpack on demand


class TestEngineParity:
    """run_batch: P-values identical to the scalar suite, whatever the container."""

    TESTS = [1, 2, 3, 4, 11, 12, 13]

    #: The scalar reference of each test: re-scans the raw bits.
    ORACLES = {
        1: nist.frequency_test,
        2: nist.block_frequency_test,
        3: nist.runs_test,
        4: nist.longest_run_test,
        11: nist.serial_test,
        12: nist.approximate_entropy_test,
        13: nist.cumulative_sums_test,
    }

    def p_values(self, reports):
        return [
            {test_id: result.p_values for test_id, result in report.results.items()}
            for report in reports
        ]

    @pytest.mark.parametrize("n", [128, 4096])
    def test_bit_identical_to_scalar_oracles(self, n):
        matrix = IdealSource(seed=42).generate_matrix(8, n)
        expected = [
            {
                NIST_NUMBER_TO_ID[number]: self.ORACLES[number](row).p_values
                for number in self.TESTS
            }
            for row in matrix
        ]
        assert self.p_values(run_batch(matrix, tests=self.TESTS)) == expected

    def test_prepacked_input_matches_uint8_matrix(self):
        source = IdealSource(seed=77)
        matrix = source.generate_matrix(6, 2048)
        source.reset()
        prepacked = source.generate_matrix(6, 2048, packed=True)
        assert isinstance(prepacked, P.PackedMatrix)
        assert np.array_equal(prepacked.unpack(), matrix)  # same stream
        from_packed = run_batch(prepacked, tests=self.TESTS)
        from_matrix = run_batch(matrix, tests=self.TESTS)
        assert self.p_values(from_packed) == self.p_values(from_matrix)

    def test_empty_prepacked_batch(self):
        packed = P.pack_matrix(np.zeros((0, 128), dtype=np.uint8))
        assert run_batch(packed, tests=[1]) == []
