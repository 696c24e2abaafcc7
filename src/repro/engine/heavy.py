"""Batched kernels for the five heavyweight NIST tests.

After the cheap tests went batch-native on shared statistics and the packed
kernels, the only per-sequence Python left on the engine's hot path was the
five expensive tests — rank, DFT, universal, linear complexity and random
excursions(+variant) — historically fanned out over a process pool.  This
module computes each of them across a whole
:class:`~repro.engine.context.BatchContext` at once, working directly on the
packed bit-planes of :mod:`repro.engine.packed` wherever the algorithm
allows:

* **rank** — the 32x32 matrices are read straight off the packed words as
  little-endian ``uint32`` chunks (one chunk per matrix row; the within-row
  bit reversal is a column permutation, which GF(2) rank ignores) and
  eliminated with a vectorised XOR basis over every matrix of every
  sequence simultaneously.
* **DFT** — one batched FFT over ``(rows, n)`` chunks; numpy's pocketfft
  evaluates each row exactly as the per-sequence call does, so the peak
  counts are bit-identical.
* **universal** — the per-block table updates collapse into a previous-
  occurrence scan: one stable argsort over (row, block value) keys yields
  every gap distance without a Python-loop table.
* **linear complexity** — a bit-sliced Berlekamp–Massey advances 64 blocks
  per word operation: the connection/correction polynomials of all blocks
  live as ``(M+1, words)`` bit-plane slabs and every step is a handful of
  whole-slab XOR/AND ops.
* **random excursions (+variant)** — the per-row cycle/visit histograms come
  from ``cumsum`` + ``bincount``; the batch's cusum walk-extreme kernels
  (:meth:`BatchContext.walk_extremes`) bound which of the eight states were
  ever visited, so never-entered states skip their table column entirely.

Every kernel ends in the *same* shared decision helper as its scalar
reference (``rank_decision``, ``dft_decision``, ...), fed the same integer
statistics — which is what makes the P-values bit-identical, as
``tests/test_heavy_batch_parity.py`` and ``tests/test_engine_parity.py``
assert.  A kernel that cannot serve the requested parameters raises
:class:`BatchFallback` and the executor reruns that test per sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.engine import packed as _packed
from repro.nist.common import TestResult
from repro.nist.dft import dft_decision, dft_threshold
from repro.nist.linear_complexity import linear_complexity_decision
from repro.nist.random_excursions import EXCURSION_STATES, excursions_decision
from repro.nist.random_excursions_variant import VARIANT_STATES, variant_decision
from repro.nist.rank import rank_decision
from repro.nist.universal import UNIVERSAL_CONSTANTS, recommended_l, universal_decision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.context import BatchContext

__all__ = [
    "BatchFallback",
    "batch_rank",
    "batch_dft",
    "batch_universal",
    "batch_linear_complexity",
    "batch_random_excursions",
    "batch_random_excursions_variant",
]


class BatchFallback(Exception):
    """A batch kernel cannot serve the requested parameters.

    Raised instead of computing something slightly different (e.g. rank on
    non-32x32 matrices, which the packed word layout cannot slice): the
    executor catches it and reruns that one test through the per-sequence
    scalar path, preserving exact reference behaviour for every geometry.
    """


_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _row_windows(batch: "BatchContext", max_rows: int):
    """Yield ``(start, uint8 block)`` row windows of the batch matrix.

    Packed-only batches unpack one window at a time, so chunked kernels
    never force the full ``rows x n`` uint8 matrix into memory.
    """
    packed = batch.packed_only()
    for start in range(0, batch.num_sequences, max_rows):
        stop = min(start + max_rows, batch.num_sequences)
        if packed is not None:
            yield start, _packed.unpack_rows(packed, start, stop)
        else:
            yield start, batch.matrix[start:stop]


# ---------------------------------------------------------------------------
# Test 5: binary matrix rank
# ---------------------------------------------------------------------------

def _gf2_rank32(mats: np.ndarray) -> np.ndarray:
    """GF(2) rank of many 32x32 matrices, each given as 32 uint32 rows.

    Vectorised XOR elimination: a per-matrix basis keyed by leading-bit
    position absorbs one row of every matrix per outer step, so the whole
    population is reduced in 32x32 word-wide passes with no per-matrix
    Python.
    """
    count = mats.shape[0]
    basis = np.zeros((32, count), dtype=np.uint32)
    rank = np.zeros(count, dtype=np.int64)
    for r in range(32):
        v = mats[:, r].copy()
        for p in range(31, -1, -1):
            has = ((v >> np.uint32(p)) & np.uint32(1)).astype(bool)
            if not has.any():
                continue
            slot = basis[p]
            filled = slot != 0
            np.bitwise_xor(v, slot, out=v, where=has & filled)
            insert = has & ~filled
            if insert.any():
                basis[p] = np.where(insert, v, slot)
                rank += insert
                v[insert] = 0
    return rank


def batch_rank(
    batch: "BatchContext", matrix_rows: int = 32, matrix_cols: int = 32
) -> List[TestResult]:
    """Batched binary matrix rank test over the packed words.

    Only the standard 32x32 geometry has a packed kernel (each matrix row is
    exactly one little-endian ``uint32`` chunk of the bit-plane; the bit
    reversal within a chunk permutes columns, leaving the rank unchanged).
    Other geometries raise :class:`BatchFallback`.
    """
    if (matrix_rows, matrix_cols) != (32, 32):
        raise BatchFallback(
            f"packed rank kernel requires 32x32 matrices, got {matrix_rows}x{matrix_cols}"
        )
    n = batch.n
    bits_per_matrix = matrix_rows * matrix_cols
    num_matrices = n // bits_per_matrix
    if num_matrices == 0:
        raise ValueError(
            f"sequence too short: need at least {bits_per_matrix} bits, got {n}"
        )
    words = batch.packed().words
    chunks = np.ascontiguousarray(words).view("<u4")[:, : num_matrices * 32]
    ranks = _gf2_rank32(chunks.reshape(-1, 32).astype(np.uint32))
    ranks = ranks.reshape(batch.num_sequences, num_matrices)
    full = (ranks == 32).sum(axis=1)
    minus1 = (ranks == 31).sum(axis=1)
    results = []
    for row in range(batch.num_sequences):
        counts = {
            "full": int(full[row]),
            "full_minus_1": int(minus1[row]),
            "rest": int(num_matrices - full[row] - minus1[row]),
        }
        results.append(rank_decision(counts, num_matrices, matrix_rows, matrix_cols, n))
    return results


# ---------------------------------------------------------------------------
# Test 6: discrete Fourier transform
# ---------------------------------------------------------------------------

#: Complex-buffer budget of the chunked batch FFT (bytes).
_DFT_CHUNK_BYTES = 1 << 27


def batch_dft(batch: "BatchContext") -> List[TestResult]:
    """Batched spectral test: one FFT call per row chunk instead of per row."""
    n = batch.n
    if n < 2:
        raise ValueError("DFT test requires at least 2 bits")
    threshold = dft_threshold(n)
    half = n // 2
    rows_per_chunk = max(1, _DFT_CHUNK_BYTES // (16 * n))
    below = np.empty(batch.num_sequences, dtype=np.int64)
    for start, block in _row_windows(batch, rows_per_chunk):
        x = 2 * block.astype(np.float64) - 1
        spectrum = np.abs(np.fft.fft(x, axis=1)[:, :half])
        below[start : start + block.shape[0]] = np.count_nonzero(
            spectrum < threshold, axis=1
        )
    return [dft_decision(float(n1), n) for n1 in below]


# ---------------------------------------------------------------------------
# Test 9: Maurer's universal statistical test
# ---------------------------------------------------------------------------

#: Row-chunk budget of the universal kernel (block-value int32 entries).
_UNIVERSAL_CHUNK_VALUES = 1 << 24


def batch_universal(
    batch: "BatchContext",
    block_length: Optional[int] = None,
    init_blocks: Optional[int] = None,
) -> List[TestResult]:
    """Batched universal test via a previous-occurrence scan.

    The scalar reference walks a ``2^L``-entry table block by block; here the
    distance of every test block to the previous occurrence of its value
    falls out of one stable argsort over ``(row, value)`` keys — adjacent
    equal keys in sort order are consecutive occurrences in stream order.
    """
    n = batch.n
    L = block_length if block_length is not None else recommended_l(n)
    if L not in UNIVERSAL_CONSTANTS:
        raise ValueError(f"block_length must be one of {sorted(UNIVERSAL_CONSTANTS)}")
    Q = init_blocks if init_blocks is not None else 10 * (1 << L)
    total_blocks = n // L
    K = total_blocks - Q
    if K <= 0:
        raise ValueError(
            f"sequence too short: {total_blocks} blocks available but Q={Q} needed for initialisation"
        )
    weights = (1 << np.arange(L - 1, -1, -1)).astype(np.int32)
    rows_per_chunk = max(1, _UNIVERSAL_CHUNK_VALUES // max(n, 1))
    results: List[TestResult] = []
    for _, block in _row_windows(batch, rows_per_chunk):
        rows = block.shape[0]
        values = (
            block[:, : total_blocks * L]
            .reshape(rows, total_blocks, L)
            .astype(np.int32)
            @ weights
        )
        # Previous occurrence of each block's value within its own row: keys
        # put every (row, value) group together, a stable sort keeps stream
        # order inside the group.
        keys = (np.arange(rows, dtype=np.int64)[:, np.newaxis] << L) | values
        flat_keys = keys.ravel()
        order = np.argsort(flat_keys, kind="stable")
        same = flat_keys[order[1:]] == flat_keys[order[:-1]]
        prev = np.full(rows * total_blocks, -1, dtype=np.int64)
        prev[order[1:][same]] = order[:-1][same]
        block_index = np.arange(rows * total_blocks, dtype=np.int64) % total_blocks
        prev_index = np.where(prev >= 0, prev % total_blocks, -1)
        distances = (block_index - prev_index).reshape(rows, total_blocks)[:, Q:]
        for row in range(rows):
            results.append(
                universal_decision(np.ascontiguousarray(distances[row]), L, Q, K, n)
            )
    return results


# ---------------------------------------------------------------------------
# Test 10: linear complexity (bit-sliced Berlekamp–Massey)
# ---------------------------------------------------------------------------

#: Lane budget per bit-sliced BM slab (one lane = one M-bit block).
_LC_CHUNK_LANES = 1 << 17


def _pack_lane_mask(flags: np.ndarray, num_words: int) -> np.ndarray:
    """Pack a per-lane bool array into the (words,) uint64 lane-mask layout."""
    as_bytes = np.packbits(flags, bitorder="little")
    padded = np.zeros(num_words * 8, dtype=np.uint8)
    padded[: as_bytes.size] = as_bytes
    return padded.view("<u8")


def _bitsliced_berlekamp_massey(blocks: np.ndarray) -> np.ndarray:
    """Linear complexity of many M-bit blocks, 64 blocks per word op.

    ``blocks`` is ``(lanes, M)`` uint8; lane ``b`` rides bit ``b % 64`` of
    word ``b // 64``.  The connection polynomial C and the correction term
    T = x^(i-m)·B of *all* lanes are stored as ``(M+1, words)`` bit-plane
    slabs (plane ``j`` holds every lane's coefficient of x^j), so one BM
    step is a few whole-slab XOR/AND operations:

    * discrepancy  ``d = S[i] ^ XOR_j C[j] & S[i-j]`` (j bounded by the
      population's largest L — lanes with smaller L have zero high planes,
      so the extra terms vanish),
    * ``C ^= T & d`` on the lanes with a discrepancy,
    * ``T <- x·C_old`` on lanes that reset (2L <= i), ``x·T`` elsewhere —
      both at once as ``T'[j+1] = T[j] ^ (C_new[j] & reset)``, using
      ``C_old = C_new ^ T`` on reset lanes.

    Planes above degree M never influence planes <= M, so the slab height
    M+1 is exact, and zero-padding lanes beyond the population is harmless
    (their discrepancy is always zero).
    """
    lanes, m_bits = blocks.shape
    num_words = (lanes + 63) // 64
    packed_s = np.packbits(blocks.T, axis=1, bitorder="little")
    if packed_s.shape[1] < num_words * 8:
        padded = np.zeros((m_bits, num_words * 8), dtype=np.uint8)
        padded[:, : packed_s.shape[1]] = packed_s
        packed_s = padded
    # packbits of the transposed lanes may come back F-ordered; the word
    # view needs a contiguous last axis.
    s_planes = np.ascontiguousarray(packed_s).view("<u8")
    c_planes = np.zeros((m_bits + 1, num_words), dtype=np.uint64)
    t_planes = np.zeros((m_bits + 1, num_words), dtype=np.uint64)
    c_planes[0] = _ALL_ONES  # every lane starts at C = 1
    t_planes[1] = _ALL_ONES  # and T = x·B with B = 1, m = -1
    complexity = np.zeros(lanes, dtype=np.int64)
    l_max = 0
    for i in range(m_bits):
        k = min(i, l_max)
        if k:
            d = s_planes[i] ^ np.bitwise_xor.reduce(
                c_planes[1 : k + 1] & s_planes[i - k : i][::-1], axis=0
            )
        else:
            d = s_planes[i].copy()
        shift_upper = min(i + 2, m_bits)
        if not d.any():
            t_planes[1 : shift_upper + 1] = t_planes[0:shift_upper].copy()
            t_planes[0] = 0
            continue
        d_bits = np.unpackbits(
            d.view(np.uint8), count=lanes, bitorder="little"
        ).astype(bool)
        reset = d_bits & (2 * complexity <= i)
        reset_mask = _pack_lane_mask(reset, num_words)
        cap = min(i + 1, m_bits)
        np.bitwise_xor(
            c_planes[1 : cap + 1],
            t_planes[1 : cap + 1] & d,
            out=c_planes[1 : cap + 1],
        )
        t_planes[1 : shift_upper + 1] = t_planes[0:shift_upper] ^ (
            c_planes[0:shift_upper] & reset_mask
        )
        t_planes[0] = 0
        if reset.any():
            np.copyto(complexity, i + 1 - complexity, where=reset)
            l_max = int(complexity.max())
    return complexity


def batch_linear_complexity(
    batch: "BatchContext", block_length: int = 500
) -> List[TestResult]:
    """Batched linear complexity test via bit-sliced Berlekamp–Massey."""
    n = batch.n
    if block_length < 4:
        raise ValueError("block_length must be at least 4")
    num_blocks = n // block_length
    if num_blocks == 0:
        raise ValueError("sequence shorter than a single block")
    rows_per_chunk = max(1, _LC_CHUNK_LANES // num_blocks)
    results: List[TestResult] = []
    for _, block in _row_windows(batch, rows_per_chunk):
        rows = block.shape[0]
        lanes = block[:, : num_blocks * block_length].reshape(-1, block_length)
        complexities = _bitsliced_berlekamp_massey(lanes).reshape(rows, num_blocks)
        for row in range(rows):
            results.append(
                linear_complexity_decision(
                    complexities[row], block_length, num_blocks, n
                )
            )
    return results


# ---------------------------------------------------------------------------
# Tests 14/15: random excursions (+variant)
# ---------------------------------------------------------------------------

def batch_random_excursions(batch: "BatchContext") -> List[TestResult]:
    """Batched random excursions test.

    The batch's cusum walk-extreme kernels bound each row's walk, so a state
    the walk never reaches contributes its all-zero-visit histogram without
    touching the visit table; visited states are histogrammed with one
    ``bincount`` over (cycle, state) keys per row.
    """
    n = batch.n
    if n == 0:
        raise ValueError("random excursions test requires a non-empty sequence")
    s_max, s_min, _ = batch.walk_extremes()
    results: List[TestResult] = []
    for row in range(batch.num_sequences):
        bits = batch.row_bits(row)
        walk = np.cumsum(2 * bits.astype(np.int32) - 1, dtype=np.int32)
        if walk[-1] != 0:
            walk = np.append(walk, np.int32(0))
        zeros = walk == 0
        j = int(np.count_nonzero(zeros))  # >= 1 for n >= 1: the walk ends at 0
        cycle_index = np.cumsum(zeros) - zeros  # zeros strictly before each step
        in_band = (walk >= -4) & (walk <= 4) & ~zeros
        states = walk[in_band]
        columns = states + 4 - (states > 0)  # -4..-1 -> 0..3, 1..4 -> 4..7
        table = np.bincount(
            cycle_index[in_band] * 8 + columns, minlength=j * 8
        ).reshape(j, 8)
        lo, hi = int(s_min[row]), int(s_max[row])
        histograms: Dict[int, np.ndarray] = {}
        for column, x in enumerate(EXCURSION_STATES):
            if x < lo or x > hi:
                histogram = np.zeros(6, dtype=np.int64)
                histogram[0] = j  # never visited: all j cycles sit at 0 visits
            else:
                histogram = np.bincount(
                    np.minimum(table[:, column], 5), minlength=6
                ).astype(np.int64)
            histograms[x] = histogram
        results.append(excursions_decision(histograms, j, n))
    return results


def batch_random_excursions_variant(batch: "BatchContext") -> List[TestResult]:
    """Batched random excursions variant test: one bincount per row."""
    n = batch.n
    if n == 0:
        raise ValueError("random excursions variant test requires a non-empty sequence")
    results: List[TestResult] = []
    for row in range(batch.num_sequences):
        bits = batch.row_bits(row)
        walk = np.cumsum(2 * bits.astype(np.int32) - 1, dtype=np.int32)
        j = int(np.count_nonzero(walk == 0)) + 1  # + the appended terminal zero
        in_band = (walk >= -9) & (walk <= 9) & (walk != 0)
        binned = np.bincount(walk[in_band] + 9, minlength=19)
        counts = {x: int(binned[x + 9]) for x in VARIANT_STATES}
        results.append(variant_decision(counts, j, n))
    return results
