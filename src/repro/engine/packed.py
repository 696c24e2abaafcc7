"""Packed bit-planes: 64-bits-per-word kernels for the shared statistics.

The paper's hardware derives its shared sub-statistics with word-parallel
logic over the raw bit stream; the software engine historically spent a full
``uint8`` byte per bit, so every statistic paid 8x the memory traffic the
hardware would.  This module closes that gap: a bit matrix is packed row by
row into ``uint64`` words (:func:`pack_matrix`) and the cheap shared
statistics — ones count, per-block ones, transition count, longest run of
ones per block, random-walk extremes — are computed directly on the words
with popcount and shift/mask arithmetic, touching 1/8th of the bytes.  The
cyclic pattern counters (serial, approximate entropy) and per-block
template counters (both template tests) run on funnel-shifted bit-planes of
the same words.

Bit order
---------
Words use a *little* bit order end to end: stream bit ``j`` of a row lives
at bit position ``j % 64`` of word ``j // 64`` (``np.packbits(...,
bitorder="little")`` viewed as little-endian ``uint64``).  The payoff is
that bit adjacency survives packing — ``word >> 1`` aligns stream bit
``j + 1`` with stream bit ``j`` — so transitions and run lengths reduce to
shift/XOR/AND word ops, stitched across word boundaries explicitly.  Rows
whose length is not a multiple of 64 are zero-padded at the top of the last
word; every kernel masks those tail bits out, and :class:`PackedMatrix`
validates on construction that the padding really is zero.

Every kernel is integer-exact and produces *bit-identical* values to the
scalar ``repro.nist`` references and to brute-force numpy counts (asserted
by ``tests/test_packed.py`` and ``tests/test_packed_counters.py``), so the
packed route never changes a P-value.

The popcount primitive uses :func:`numpy.bitwise_count` where available
(numpy >= 2.0) and falls back to a byte lookup table on older numpy.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

# The byte-level (MSB-first, right-zero-padded tail) siblings of the word
# packers below: the single interchange convention every capture file and
# integer codec in the library shares.  Defined in :mod:`repro.nist.common`
# (the dependency-free bottom layer) and re-exported here so both packing
# families have one documented home.
from repro.nist.common import pack_bits, unpack_bits

__all__ = [
    "BITS_PER_WORD",
    "PackedMatrix",
    "pack_matrix",
    "unpack_matrix",
    "unpack_rows",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "ones_count",
    "block_ones",
    "supports_block_ones",
    "transition_counts",
    "block_longest_one_runs",
    "supports_block_longest_one_runs",
    "walk_extremes",
    "last_bits",
    "stream_bits",
    "word_summaries",
    "cyclic_pattern_counts",
    "template_block_counts",
]

#: Bits per packed word.
BITS_PER_WORD = 64

#: Storage dtype of packed words: explicit little-endian so the byte/uint16
#: sub-views used by the kernels line up with stream order on any host.
WORD_DTYPE = np.dtype("<u8")

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: All word bits except the top one — the positions where ``w ^ (w >> 1)``
#: compares two bits of the *same* word.
_INNER_PAIR_MASK = np.uint64((1 << 63) - 1)


class PackedMatrix:
    """A ``(rows, n)`` bit matrix packed 64 bits per word.

    Attributes
    ----------
    words:
        ``(rows, ceil(n / 64))`` little-endian ``uint64`` array; stream bit
        ``j`` of a row is bit ``j % 64`` of word ``j // 64``.
    n:
        Bits per row.  Tail bits of the last word (``n % 64`` onwards) are
        zero and are never interpreted by the kernels.
    source:
        Optional reference to the original ``uint8`` matrix (kept by
        ``pack_matrix(..., keep_source=True)``) so consumers that still need
        per-bit access — the run-length histogram, FIPS poker blocks, the
        scalar fallbacks — read it back without an unpack pass.
    """

    __slots__ = ("words", "n", "source")

    def __init__(self, words: np.ndarray, n: int, source: Optional[np.ndarray] = None):
        words = np.ascontiguousarray(words, dtype=WORD_DTYPE)
        if words.ndim != 2:
            raise ValueError("PackedMatrix expects a 2-D (rows, words) array")
        if n < 0:
            raise ValueError("bit length n must be non-negative")
        expected_words = (n + BITS_PER_WORD - 1) // BITS_PER_WORD
        if words.shape[1] != expected_words:
            raise ValueError(
                f"{n} bits per row need {expected_words} words, got {words.shape[1]}"
            )
        tail = n % BITS_PER_WORD
        if tail and words.size and np.any(words[:, -1] >> np.uint64(tail)):
            raise ValueError(
                "tail bits beyond n must be zero-padded "
                f"(n = {n} leaves {BITS_PER_WORD - tail} pad bits in the last word)"
            )
        self.words = words
        self.n = int(n)
        self.source = source

    @property
    def num_rows(self) -> int:
        return int(self.words.shape[0])

    @property
    def num_words(self) -> int:
        return int(self.words.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed words (1/8th of the uint8 matrix)."""
        return int(self.words.nbytes)

    def unpack(self) -> np.ndarray:
        """The ``(rows, n)`` uint8 bit matrix (the retained source if any)."""
        if self.source is not None:
            return self.source
        return unpack_matrix(self)

    def row(self, index: int) -> np.ndarray:
        """One row as a 1-D uint8 bit array, without unpacking the rest.

        The lazy per-row escape hatch of the batch executor's scalar
        fallback paths: a packed-only batch hands a single sequence to a
        per-bit consumer at ``n`` bytes instead of ``rows * n``.
        """
        return unpack_rows(self, index, index + 1)[0]

    def __repr__(self) -> str:
        return f"PackedMatrix(rows={self.num_rows}, n={self.n}, words={self.num_words})"


def pack_matrix(matrix: np.ndarray, *, keep_source: bool = False) -> PackedMatrix:
    """Pack a validated ``(rows, n)`` uint8 bit matrix into 64-bit words.

    Rows are packed independently (``np.packbits`` along axis 1, little bit
    order) and right-padded with zero bytes up to a whole number of words;
    ``keep_source=True`` retains a reference to the input matrix so later
    per-bit consumers skip the unpack pass.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError("pack_matrix expects a 2-D (rows, n) bit matrix")
    if matrix.size and int(matrix.max()) > 1:
        raise ValueError("bit matrix must contain only 0 and 1 values")
    rows, n = matrix.shape
    num_words = (n + BITS_PER_WORD - 1) // BITS_PER_WORD
    packed_bytes = np.packbits(matrix, axis=1, bitorder="little")
    if packed_bytes.shape[1] < num_words * 8:
        padded = np.zeros((rows, num_words * 8), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    words = packed_bytes.view(WORD_DTYPE)
    return PackedMatrix(words, n, source=matrix if keep_source else None)


def unpack_matrix(packed: PackedMatrix) -> np.ndarray:
    """Expand a :class:`PackedMatrix` back to its ``(rows, n)`` uint8 form.

    Exact inverse of :func:`pack_matrix` for every ``n`` (tail pad bytes are
    dropped by unpacking with an explicit bit count).
    """
    if packed.n == 0:
        return np.zeros((packed.num_rows, 0), dtype=np.uint8)
    as_bytes = np.ascontiguousarray(packed.words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=packed.n, bitorder="little")


def unpack_rows(packed: PackedMatrix, start: int, stop: int) -> np.ndarray:
    """Expand rows ``start:stop`` of a :class:`PackedMatrix` to uint8 bits.

    Slices the retained source when one exists; otherwise only the requested
    rows' words are unpacked, so chunked consumers (the batched heavy-test
    kernels) never materialise the full matrix.
    """
    if packed.source is not None:
        return packed.source[start:stop]
    if packed.n == 0:
        return np.zeros((packed.words[start:stop].shape[0], 0), dtype=np.uint8)
    as_bytes = np.ascontiguousarray(packed.words[start:stop]).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=packed.n, bitorder="little")


# ---------------------------------------------------------------------------
# Popcount primitive
# ---------------------------------------------------------------------------

_POP8_LUT: Optional[np.ndarray] = None


def _pop8_lut() -> np.ndarray:
    """256-entry per-byte popcount table (fallback for old numpy)."""
    global _POP8_LUT
    if _POP8_LUT is None:
        _POP8_LUT = np.unpackbits(
            np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
        ).sum(axis=1, dtype=np.uint8)
    return _POP8_LUT


def popcount(values: np.ndarray, *, force_lut: bool = False) -> np.ndarray:
    """Per-element popcount of an unsigned integer array (uint8 result).

    Uses :func:`numpy.bitwise_count` when the running numpy provides it;
    otherwise each element is split into its bytes and summed through a
    256-entry lookup table (``force_lut=True`` exercises the fallback in
    tests regardless of the numpy version).
    """
    if _HAVE_BITWISE_COUNT and not force_lut:
        return np.bitwise_count(values)
    values = np.ascontiguousarray(values)
    itemsize = values.dtype.itemsize
    as_bytes = values.view(np.uint8).reshape(values.shape + (itemsize,))
    # Max popcount per element is 8 * itemsize <= 64: fits uint8.
    return _pop8_lut()[as_bytes].sum(axis=-1, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Word-level kernels
# ---------------------------------------------------------------------------

# PackedMatrix guarantees the tail bits beyond n are zero (validated at
# construction), so a whole-word popcount needs no tail mask and no .n.
def ones_count(packed: PackedMatrix) -> np.ndarray:  # repro: ignore[PKD002]
    """Per-row ones count — the hardware's frequency counter, 64 bits/op."""
    return popcount(packed.words).sum(axis=1, dtype=np.int64)


def supports_block_ones(block_length: int, n: int) -> bool:
    """True when :func:`block_ones` has a packed kernel for this geometry."""
    if block_length <= 0 or block_length > n:
        return False
    return block_length % BITS_PER_WORD == 0 or block_length in (8, 16, 32)


def block_ones(packed: PackedMatrix, block_length: int) -> np.ndarray:
    """Ones count of each full ``block_length``-bit block, per row (int64).

    Supported geometries (everything the NIST/FIPS parameter space actually
    uses on the hot path): block lengths that are a multiple of 64 reduce to
    a word reshape + popcount; 8/16/32-bit blocks are popcounted on the
    byte/uint16/uint32 sub-views of the words (stream order is preserved by
    the little bit order).  Other block lengths raise ``ValueError`` — the
    caller falls back to the uint8 path.
    """
    n = packed.n
    if not supports_block_ones(block_length, n):
        raise ValueError(f"no packed kernel for block_length={block_length} at n={n}")
    rows = packed.num_rows
    num_blocks = n // block_length
    if block_length % BITS_PER_WORD == 0:
        words_per_block = block_length // BITS_PER_WORD
        usable = packed.words[:, : num_blocks * words_per_block]
        counts = popcount(usable).reshape(rows, num_blocks, words_per_block)
        return counts.sum(axis=2, dtype=np.int64)
    view_dtype = {8: "<u1", 16: "<u2", 32: "<u4"}[block_length]
    units = np.ascontiguousarray(packed.words).view(view_dtype)[:, :num_blocks]
    return popcount(units).astype(np.int64)


def transition_counts(packed: PackedMatrix) -> np.ndarray:
    """Number of positions where bit ``j`` differs from bit ``j+1``, per row.

    ``w ^ (w >> 1)`` marks every in-word adjacent pair that differs (the top
    bit of the XOR compares against the next word's padding and is masked
    off); word boundaries are stitched by comparing each word's top bit with
    its successor's bottom bit.  The runs test's ``V_n(obs)`` is this + 1.
    """
    if packed.n == 0:
        return np.zeros(packed.num_rows, dtype=np.int64)
    words = packed.words
    num_words = packed.num_words
    tail = packed.n - (num_words - 1) * BITS_PER_WORD  # 1..64 bits in last word
    pair_mask = np.full(num_words, _INNER_PAIR_MASK, dtype=WORD_DTYPE)
    # In the last word only the first tail-1 adjacent pairs are real bits.
    pair_mask[-1] = np.uint64((1 << (tail - 1)) - 1) if tail < BITS_PER_WORD else _INNER_PAIR_MASK
    inner = popcount((words ^ (words >> np.uint64(1))) & pair_mask).sum(
        axis=1, dtype=np.int64
    )
    if num_words > 1:
        seams = (words[:, :-1] >> np.uint64(63)) ^ (words[:, 1:] & np.uint64(1))
        inner += seams.sum(axis=1, dtype=np.int64)
    return inner


def stream_bits(packed: PackedMatrix, positions: np.ndarray) -> np.ndarray:
    """Stream bits at ``positions`` (each in ``0 .. n-1``) of every row, as uint8."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= packed.n):
        raise ValueError(f"stream positions must lie in 0..{packed.n - 1}")
    offsets = (positions % BITS_PER_WORD).astype(WORD_DTYPE)
    chosen_words = packed.words[:, positions // BITS_PER_WORD]
    return ((chosen_words >> offsets) & np.uint64(1)).astype(np.uint8)


def last_bits(packed: PackedMatrix) -> np.ndarray:
    """The final stream bit of every row (uint8) without unpacking."""
    if packed.n == 0:
        raise ValueError("empty rows have no last bit")
    word = (packed.n - 1) // BITS_PER_WORD
    offset = np.uint64((packed.n - 1) % BITS_PER_WORD)
    return ((packed.words[:, word] >> offset) & np.uint64(1)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Chunk lookup tables (longest-run merge, walk extremes)
# ---------------------------------------------------------------------------
#
# Sub-word statistics that depend on bit *order* (run lengths, walk
# excursions) are computed per 8- or 16-bit chunk through lookup tables and
# merged across chunks with a short vectorised recurrence — the software
# version of the hardware's carry chains.  Tables are built lazily once.

_CHUNK_LUTS: Dict[int, Dict[str, np.ndarray]] = {}


def _chunk_bit_matrix(bits: int) -> np.ndarray:
    """``(2**bits, bits)`` matrix: row v = stream-ordered bits of chunk v."""
    values = np.arange(1 << bits, dtype="<u2" if bits == 16 else np.uint8)
    as_bytes = values[:, np.newaxis].view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=bits, bitorder="little")


def _chunk_luts(bits: int) -> Dict[str, np.ndarray]:
    """Per-chunk tables: longest/prefix/suffix one-runs and walk summary."""
    luts = _CHUNK_LUTS.get(bits)
    if luts is None:
        matrix = _chunk_bit_matrix(bits)
        # Longest run of ones per chunk: append a zero column so runs end
        # inside each row, then take the max gap between run edges.
        padded = np.zeros((matrix.shape[0], bits + 1), dtype=np.int8)
        padded[:, :bits] = matrix
        flat = np.concatenate([[0], padded.ravel()])
        edges = np.diff(flat)
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1)
        longest = np.zeros(matrix.shape[0], dtype=np.int16)
        np.maximum.at(longest, starts // (bits + 1), (ends - starts).astype(np.int16))
        # Run of ones touching the chunk's start (prefix) and end (suffix).
        prefix = np.cumprod(matrix, axis=1).sum(axis=1, dtype=np.int16)
        suffix = np.cumprod(matrix[:, ::-1], axis=1).sum(axis=1, dtype=np.int16)
        # ±1 walk summary of the chunk: total delta, max/min prefix sum.
        walk = np.cumsum(2 * matrix.astype(np.int16) - 1, axis=1)
        luts = {
            "longest": longest,
            "prefix": prefix,
            "suffix": suffix,
            "delta": walk[:, -1].astype(np.int16),
            "walk_max": walk.max(axis=1).astype(np.int16),
            "walk_min": walk.min(axis=1).astype(np.int16),
        }
        _CHUNK_LUTS[bits] = luts
    return luts


_WALK_PACK_LUT: Optional[np.ndarray] = None
_RUN_PACK_LUT: Optional[np.ndarray] = None


def _walk_pack_lut() -> np.ndarray:
    """Chunk walk extremes bias-packed into one int16 table.

    Entry v is ``((walk_max + 16) << 6) | (walk_min + 16)`` — both extremes
    of a 16-bit chunk lie in [-16, 16], so one gather per chunk column
    replaces two, and unpacking is a shift and a mask (flat ops, far
    cheaper than table gathers at streaming-push sizes).
    """
    global _WALK_PACK_LUT
    if _WALK_PACK_LUT is None:
        luts = _chunk_luts(16)
        pair = ((luts["walk_max"].astype(np.int32) + 16) << 6) | (
            luts["walk_min"].astype(np.int32) + 16
        )
        _WALK_PACK_LUT = pair.astype(np.int16)
    return _WALK_PACK_LUT


def _run_pack_lut() -> np.ndarray:
    """Chunk one-run lengths packed ``(longest << 10) | (prefix << 5) | suffix``.

    All three lengths of a 16-bit chunk lie in [0, 16] (5 bits each), so the
    triple fits one int16 gather; ``prefix == 16`` doubles as the all-ones
    test the cross-chunk merge needs.
    """
    global _RUN_PACK_LUT
    if _RUN_PACK_LUT is None:
        luts = _chunk_luts(16)
        triple = (
            (luts["longest"].astype(np.int32) << 10)
            | (luts["prefix"].astype(np.int32) << 5)
            | luts["suffix"].astype(np.int32)
        )
        _RUN_PACK_LUT = triple.astype(np.int16)
    return _RUN_PACK_LUT


# Pure reinterpret-cast of the zero-padded words; callers slice to their
# own geometry, so the view itself never consults .n or masks the tail.
def _chunk_view(packed: PackedMatrix, bits: int) -> np.ndarray:  # repro: ignore[PKD002]
    """The words reinterpreted as stream-ordered ``bits``-wide chunks."""
    dtype = "<u2" if bits == 16 else np.uint8
    return np.ascontiguousarray(packed.words).view(dtype)


def supports_block_longest_one_runs(block_length: int, n: int) -> bool:
    """True when :func:`block_longest_one_runs` has a packed kernel."""
    if block_length <= 0 or block_length > n:
        return False
    return block_length % 8 == 0


def block_longest_one_runs(packed: PackedMatrix, block_length: int) -> np.ndarray:
    """Longest run of ones inside each full ``block_length``-bit block.

    Blocks are scanned as 16-bit chunks (8-bit when the block length is not
    a multiple of 16) through the chunk tables, then merged left to right:
    a run crossing a chunk seam is the left chunk's suffix plus the right
    chunk's prefix, and an all-ones chunk extends the carried run whole.
    Covers every NIST-tabulated block length (8 / 128 / 512 / 1000 / 10000).
    """
    n = packed.n
    if not supports_block_longest_one_runs(block_length, n):
        raise ValueError(f"no packed kernel for block_length={block_length} at n={n}")
    chunk_bits = 16 if block_length % 16 == 0 else 8
    luts = _chunk_luts(chunk_bits)
    rows = packed.num_rows
    num_blocks = n // block_length
    chunks_per_block = block_length // chunk_bits
    chunks = _chunk_view(packed, chunk_bits)[:, : num_blocks * chunks_per_block]
    blocks = chunks.reshape(rows, num_blocks, chunks_per_block)
    all_ones = (1 << chunk_bits) - 1
    longest = np.zeros((rows, num_blocks), dtype=np.int64)
    trailing = np.zeros((rows, num_blocks), dtype=np.int64)
    for index in range(chunks_per_block):
        chunk = blocks[:, :, index]
        bridged = trailing + luts["prefix"][chunk]
        np.maximum(longest, luts["longest"][chunk], out=longest)
        np.maximum(longest, bridged, out=longest)
        trailing = np.where(chunk == all_ones, trailing + chunk_bits, luts["suffix"][chunk])
    return longest


def word_summaries(words: np.ndarray, *, track_runs: bool = True) -> Dict[str, np.ndarray]:
    """Per-word shared-statistic summaries of *full* 64-bit words.

    The streaming contexts (:mod:`repro.engine.streaming`) maintain their
    running window statistics from these summaries: every committed word is
    reduced once, and a window roll then adds/subtracts word summaries
    instead of re-scanning bits.  ``words`` is a ``(rows, count)`` uint64
    array of complete words — callers own the tail discipline (a streaming
    ring only commits full words), so no bit length is consulted here.

    Returned keys (all ``(rows, count)`` arrays):

    ``pop`` / ``inner``
        Ones count and in-word adjacent-pair transition count (uint8).
    ``first`` / ``last``
        The word's first and last stream bit (uint8) — the seam state the
        incremental transition count stitches across word boundaries.
    ``delta`` / ``walk_max`` / ``walk_min``
        ±1 walk summary of the word (int16): total delta and the extreme
        prefix sums relative to the word's start.
    ``longest`` / ``prefix`` / ``suffix``
        Longest / start-touching / end-touching one-run lengths (int16),
        present only with ``track_runs=True`` (they cost one extra table
        gather per chunk and only the block-longest statistic reads them).
    """
    words = np.ascontiguousarray(words, dtype=WORD_DTYPE)
    if words.ndim != 2:
        raise ValueError("word_summaries expects a 2-D (rows, count) word array")
    rows, count = words.shape
    chunks = words.view("<u2").reshape(rows, count, 4)
    # Chunk ±1 deltas come straight from popcount (delta = 2*pop - 16) and
    # the in-chunk walk extremes from one bias-packed gather: push-sized
    # inputs are bound by gather traffic, so fewer/narrower tables win.
    deltas = (popcount(chunks).astype(np.int16) << np.int16(1)) - np.int16(16)
    walk_pair = _walk_pack_lut()[chunks]
    highs = walk_pair >> np.int16(6)
    lows = walk_pair & np.int16(63)
    # Merge the four chunks Horner-style from the right:
    #   max(m0, d0 + max(m1, d1 + max(m2, d2 + m3)))
    # — numpy reductions over a length-4 axis cost far more than three
    # unrolled adds/maxima on the column slices.  The +16 table bias rides
    # through unchanged (the d terms are unbiased) and cancels at the end.
    s_max = highs[:, :, 3]
    s_min = lows[:, :, 3]
    total = deltas[:, :, 3].copy()
    for index in (2, 1, 0):
        d = deltas[:, :, index]
        s_max = np.maximum(highs[:, :, index], d + s_max)
        s_min = np.minimum(lows[:, :, index], d + s_min)
        total += d
    summaries: Dict[str, np.ndarray] = {
        "pop": popcount(words),
        "inner": popcount((words ^ (words >> np.uint64(1))) & _INNER_PAIR_MASK),
        "first": (words & np.uint64(1)).astype(np.uint8),
        "last": (words >> np.uint64(63)).astype(np.uint8),
        "delta": total,
        "walk_max": s_max - np.int16(16),
        "walk_min": s_min - np.int16(16),
    }
    if track_runs:
        run_triple = _run_pack_lut()[chunks]
        longest_t = run_triple >> np.int16(10)
        prefix_t = (run_triple >> np.int16(5)) & np.int16(31)
        suffix_t = run_triple & np.int16(31)
        saturated = prefix_t == np.int16(16)
        # Chunk 0 seeds the merge directly (an empty carry bridges nothing).
        longest = longest_t[:, :, 0].copy()
        trailing = np.where(saturated[:, :, 0], np.int16(16), suffix_t[:, :, 0])
        prefix = prefix_t[:, :, 0].copy()
        prefix_open = saturated[:, :, 0]
        for index in range(1, 4):
            bridged = trailing + prefix_t[:, :, index]
            np.maximum(longest, longest_t[:, :, index], out=longest)
            np.maximum(longest, bridged, out=longest)
            trailing = np.where(
                saturated[:, :, index], trailing + np.int16(16), suffix_t[:, :, index]
            )
            prefix += np.where(prefix_open, prefix_t[:, :, index], np.int16(0))
            prefix_open = prefix_open & saturated[:, :, index]
        summaries["longest"] = longest
        summaries["prefix"] = prefix
        # The run touching the word's end is whatever run the merge carries
        # out of the last chunk.
        summaries["suffix"] = trailing
    return summaries


def walk_extremes(packed: PackedMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(S_max, S_min, S_final)`` of the ±1 walk, per row (cusum test).

    The walk is reduced 16 bits at a time: each chunk contributes its total
    ±1 delta plus its internal max/min excursion from the tables, so the
    expensive per-bit cumulative sum becomes a 16x narrower cumulative sum
    over chunk deltas.  Tail bits short of a chunk are finished per bit on
    the (at most 15-column) remainder.
    """
    n = packed.n
    if n == 0:
        raise ValueError("walk extremes need at least one bit")
    luts = _chunk_luts(16)
    rows = packed.num_rows
    full = n // 16
    tail = n % 16
    lowest = np.iinfo(np.int32).min
    s_max = np.full(rows, lowest, dtype=np.int64)
    s_min = np.full(rows, -lowest, dtype=np.int64)
    s_final = np.zeros(rows, dtype=np.int64)
    chunks = _chunk_view(packed, 16)
    if full:
        body = chunks[:, :full]
        deltas = luts["delta"][body].astype(np.int32)
        totals = np.cumsum(deltas, axis=1, dtype=np.int32)
        before = totals - deltas
        s_max = (before + luts["walk_max"][body]).max(axis=1).astype(np.int64)
        s_min = (before + luts["walk_min"][body]).min(axis=1).astype(np.int64)
        s_final = totals[:, -1].astype(np.int64)
    if tail:
        tail_chunk = chunks[:, full].astype(np.int64)
        tail_bits = (tail_chunk[:, np.newaxis] >> np.arange(tail)) & 1
        tail_walk = np.cumsum(2 * tail_bits - 1, axis=1) + s_final[:, np.newaxis]
        np.maximum(s_max, tail_walk.max(axis=1), out=s_max)
        np.minimum(s_min, tail_walk.min(axis=1), out=s_min)
        s_final = tail_walk[:, -1]
    return s_max, s_min, s_final


# ---------------------------------------------------------------------------
# Pattern and template counters (serial, approximate entropy, templates)
# ---------------------------------------------------------------------------
#
# The paper's shared shift register exposes the last m bits in parallel, so
# one clock updates every m-bit pattern counter and every template matcher.
# The word-parallel analogue is a set of *bit-planes*: plane k holds stream
# bit ``i + k`` at position ``i``, so AND-ing the planes (or their
# complements) marks every position whose m-bit window equals a pattern, 64
# windows per word op, and a popcount turns the mark plane into a count.

#: Largest pattern length counted on the plane tree; longer patterns go
#: through word-level window extraction.  The tree costs ~2^m word ops per
#: row word against the extraction's fixed 64 shifted copies and bincount,
#: and the two cross between m = 7 (tree ~2x faster) and m = 8 (extraction
#: ahead) on 64 x 65536-bit batches (x86-64, numpy 2.4).
PLANE_TREE_MAX_M = 7

#: Row words per kernel pass (window extraction makes 64 values of each),
#: and leaf words per plane-tree column pass: both bound the scratch memory
#: at a few MiB whatever the batch shape, and keep a tree pass in cache.
_PASS_WORDS = 1 << 14
_LEAF_WORDS = 1 << 17

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _low_mask(bits: int) -> np.uint64:
    """The ``bits`` low bits of a word set (``0 <= bits <= 64``)."""
    return np.uint64((1 << bits) - 1)


def _funnel_shift(words: np.ndarray, k: int) -> np.ndarray:
    """Bit-plane ``k`` of zero-padded rows: bit ``i`` holds stream bit ``i + k``.

    Positions whose source ``i + k`` lies past the end of the row read the
    zero padding, so the plane is zero from ``n - k`` on.
    """
    if k == 0:
        return words.copy()
    whole, part = divmod(k, BITS_PER_WORD)
    plane = np.zeros_like(words)
    if whole >= words.shape[1]:
        return plane
    source = words[:, whole:]
    width = source.shape[1]
    if part == 0:
        plane[:, :width] = source
        return plane
    plane[:, :width] = source >> np.uint64(part)
    plane[:, : width - 1] |= source[:, 1:] << np.uint64(BITS_PER_WORD - part)
    return plane


def _cyclic_extension(words: np.ndarray, n: int) -> np.ndarray:
    """The rows followed by their first 63 stream bits, plus a zero word.

    Bit ``i + k`` of the extension is stream bit ``(i + k) mod n`` for every
    ``i < n`` and ``k < min(n, 64)`` — every bit an ``m``-bit cyclic window
    reads for ``m <= min(n, 64)``.  The trailing zero word lets a funnel
    shift read one word past any window start.
    """
    rows, num_words = words.shape
    extended = np.zeros((rows, num_words + 2), dtype=WORD_DTYPE)
    extended[:, :num_words] = words
    head = words[:, 0] & _low_mask(BITS_PER_WORD - 1)
    index, offset = divmod(n, BITS_PER_WORD)
    extended[:, index] |= head << np.uint64(offset)
    if offset:
        extended[:, index + 1] |= head >> np.uint64(BITS_PER_WORD - offset)
    return extended


def _window_shifts(extended: np.ndarray, num_words: int, shifts: np.ndarray) -> np.ndarray:
    """``(len(shifts), rows, num_words)`` funnel shifts of the extended rows.

    Slice ``j`` holds, at bit ``i``, extension bit ``i + shifts[j]``
    (``0 <= shift < 64``); ``(high << 1) << (63 - s)`` is ``high << (64 - s)``
    without a 64-bit shift at ``s = 0``.
    """
    shifts = shifts.astype(WORD_DTYPE)[:, np.newaxis, np.newaxis]
    low = extended[np.newaxis, :, :num_words]
    high = extended[np.newaxis, :, 1 : num_words + 1]
    return (low >> shifts) | ((high << np.uint64(1)) << (np.uint64(BITS_PER_WORD - 1) - shifts))


def _valid_words(n: int, num_words: int) -> np.ndarray:
    """One row of words with exactly the ``n`` stream positions set."""
    valid = np.full(num_words, _ALL_ONES, dtype=WORD_DTYPE)
    tail = n - (num_words - 1) * BITS_PER_WORD
    valid[-1] = _low_mask(tail)
    return valid


def _plane_tree_counts(words: np.ndarray, n: int, m: int) -> np.ndarray:
    """Cyclic m-bit pattern counts of a row chunk by a breadth-first plane tree.

    Plane ``k`` holds cyclic stream bit ``(i + k) mod n`` at position ``i``.
    A level-``d`` node marks the positions whose first ``d`` window bits
    equal its prefix; its 1-child is ``node & plane[d]`` and its 0-child
    ``node ^ child`` (no complement, so the planes' bits past ``n`` never
    count: the root is the ``n`` valid positions).  Each level is one
    vectorised op over all its nodes; the leaves' popcounts are the counts.
    Word columns are walked in passes of at most :data:`_LEAF_WORDS` leaf
    words, since counts add up across positions.
    """
    rows, num_words = words.shape
    planes = _window_shifts(_cyclic_extension(words, n), num_words, np.arange(m))
    valid = _valid_words(n, num_words)
    counts = np.zeros((1 << m, rows), dtype=np.int64)
    step = max(1, _LEAF_WORDS // ((1 << m) * rows))
    for start in range(0, num_words, step):
        stop = min(start + step, num_words)
        nodes = np.broadcast_to(valid[start:stop], (1, rows, stop - start))
        for depth in range(m - 1):
            children = np.empty((2 * nodes.shape[0], rows, stop - start), dtype=WORD_DTYPE)
            np.bitwise_and(nodes, planes[depth, :, start:stop], out=children[1::2])
            np.bitwise_xor(nodes, children[1::2], out=children[0::2])
            nodes = children
        # Last level: only the 1-leaves are built; a 0-leaf's count is its
        # parent's minus its sibling's.
        ones = popcount(nodes & planes[m - 1, :, start:stop]).sum(axis=2, dtype=np.int64)
        counts[1::2] += ones
        counts[0::2] += popcount(nodes).sum(axis=2, dtype=np.int64) - ones
    return counts.T


def _bit_reversal(m: int) -> np.ndarray:
    """``rev[v]`` = ``v`` with its ``m`` low bits in reverse order."""
    values = np.arange(1 << m, dtype=np.int64)
    reversed_values = np.zeros_like(values)
    for bit in range(m):
        reversed_values |= ((values >> bit) & 1) << (m - 1 - bit)
    return reversed_values


def _extraction_counts(words: np.ndarray, n: int, m: int) -> np.ndarray:
    """Cyclic m-bit pattern counts of a row chunk by window extraction.

    Every window is funnel-shifted out of its two covering words of the
    cyclic extension as a little-bit-order integer; starts past ``n`` go to
    an overflow bin.  A window whose first bit is stream bit ``i`` reads
    bit ``i`` as its *least* significant bit, so the histogram is
    bit-reversed into the MSB-first pattern order at the end.
    """
    rows, num_words = words.shape
    offsets = np.arange(BITS_PER_WORD)
    windows = _window_shifts(_cyclic_extension(words, n), num_words, offsets)
    windows &= _low_mask(m)
    bins = (1 << m) + 1
    starts = offsets[:, np.newaxis] + BITS_PER_WORD * np.arange(num_words)
    values = np.where((starts >= n)[:, np.newaxis, :], bins - 1, windows.astype(np.int64))
    values += (np.arange(rows, dtype=np.int64) * bins)[np.newaxis, :, np.newaxis]
    histogram = np.bincount(values.ravel(), minlength=rows * bins).reshape(rows, bins)
    return histogram[:, _bit_reversal(m)]


def cyclic_pattern_counts(packed: PackedMatrix, m: int) -> np.ndarray:
    """Cyclic ``m``-bit pattern counts per row: ``(rows, 2**m)`` int64.

    Entry ``v`` counts the windows ``i = 0 .. n-1`` whose bits ``(i + k)
    mod n`` for ``k = 0 .. m-1``, read MSB first, equal ``v`` — NIST's
    cyclic convention for the serial and approximate-entropy tests (SP
    800-22 §2.11, §2.12), identical to
    :func:`repro.nist.common.pattern_counts`.  Up to
    :data:`PLANE_TREE_MAX_M` the counts come from a plane tree, above it
    from word-level window extraction; both walk the batch in bounded
    passes, so scratch memory beyond the result stays a few MiB for any
    ``m`` and batch shape.
    """
    n = packed.n
    if not 1 <= m <= n:
        raise ValueError(f"pattern length m={m} must lie in 1..n (n={n})")
    if m >= BITS_PER_WORD:
        raise ValueError(f"pattern length m={m} exceeds the {BITS_PER_WORD - 1}-bit window limit")
    words = packed.words
    rows, num_words = words.shape
    kernel = _plane_tree_counts if m <= PLANE_TREE_MAX_M else _extraction_counts
    step = max(1, _PASS_WORDS // num_words)
    counts = np.empty((rows, 1 << m), dtype=np.int64)
    for start in range(0, rows, step):
        counts[start : start + step] = kernel(words[start : start + step], n, m)
    return counts


def template_block_counts(
    packed: PackedMatrix, template: Sequence[int], block_length: int, num_blocks: int
) -> np.ndarray:
    """Per-block template occurrences per row: ``(rows, num_blocks)`` int64.

    Entry ``b`` counts the windows wholly inside block ``b`` (starts ``b*M
    .. b*M + M - m``) that equal ``template`` — the overlapping count of
    SP 800-22 §2.8 and, for an aperiodic template (whose occurrences cannot
    overlap), the non-overlapping count of §2.7.  The ``m`` funnel-shifted
    planes (complemented where the template bit is 0) are ANDed into one
    match plane; a running popcount over its words then gives every block
    boundary's prefix count, so each block is a difference of two prefixes
    and no per-bit position is ever materialised.
    """
    template = tuple(int(bit) for bit in template)
    m = len(template)
    n = packed.n
    if m < 1 or block_length < m:
        raise ValueError(f"template length m={m} must lie in 1..block_length={block_length}")
    if num_blocks < 0 or num_blocks * block_length > n:
        raise ValueError(f"{num_blocks} blocks of {block_length} bits exceed n={n}")
    words = packed.words
    rows = words.shape[0]
    if num_blocks == 0:
        return np.zeros((rows, 0), dtype=np.int64)
    match = np.full_like(words, _ALL_ONES)
    for k, bit in enumerate(template):
        plane = _funnel_shift(words, k)
        if not bit:
            np.invert(plane, out=plane)
        match &= plane
    # Complemented planes set positions past the row end; no window a block
    # holds reaches them, because every counted start is <= n - m.
    per_word = popcount(match)
    prefix = np.zeros((rows, words.shape[1] + 1), dtype=np.int64)
    np.cumsum(per_word, axis=1, dtype=np.int64, out=prefix[:, 1:])
    starts = np.arange(num_blocks, dtype=np.int64) * block_length
    bounds = np.concatenate([starts, starts + block_length - m + 1])
    index = bounds // BITS_PER_WORD
    offset = (bounds % BITS_PER_WORD).astype(WORD_DTYPE)
    # A bound on a word edge needs no partial word (its index may be one
    # past the last word); otherwise count the bits of its word below it.
    partial_word = match[:, np.minimum(index, words.shape[1] - 1)]
    partial = popcount(partial_word & ((np.uint64(1) << offset) - np.uint64(1)))
    before = prefix[:, index] + partial.astype(np.int64)
    return before[:, num_blocks:] - before[:, :num_blocks]
