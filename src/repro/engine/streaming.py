"""Streaming incremental contexts: O(1) window-roll shared statistics.

The monitor and fleet paths historically re-derived every shared statistic
from scratch per window: each evaluation sliced the raw uint8 history,
re-validated it, re-packed it into words and re-ran the full kernels — even
when consecutive windows overlapped almost entirely.  This module keeps the
statistics *running* instead, the way the paper's hardware block does: bits
arrive in arbitrary-size chunks, are funnel-shifted into packed 64-bit
words, and every committed word is reduced exactly once to a small summary
(:func:`repro.engine.packed.word_summaries`).  The trailing window's
statistics then roll in O(1) per word — subtract the evicted word's
summary, add the new word's — so a sliding window never re-scans its
overlap.

Layout
------
:class:`StreamingBatchContext` holds one packed ring per device
(``(rows, ring_words)`` uint64) plus per-word summary rings, a sub-word
staging tail, and running window counters:

* ``ones`` and ``transitions`` roll as true O(1) running totals (the seam
  between adjacent words is stored per word, so evicting a word removes its
  inner transitions *and* its seam with the predecessor in one subtraction).
* walk extremes cannot be rolled under eviction (the maximum may leave the
  window), so they are reduced at query time from the per-word summaries —
  a 64x narrower pass than re-scanning bits, touching summaries instead of
  the stream.
* block sums and block longest-runs are served from the summary rings for
  word-aligned block lengths, through provider hooks on the bridged
  :class:`~repro.engine.context.BatchContext`.

Memory is O(window): every ring is bounded by ``capacity_bits`` regardless
of how many bits have streamed through (:attr:`StreamingBatchContext.state_nbytes`
is the pinned measure).  When the window roll is not word-aligned (tail
bits pending, or ``window_bits % 64 != 0``), the statistics fall back to
the packed kernels over the extracted window — still bit-identical, just
not preseeded.

Bit identity
------------
Window extraction (:meth:`StreamingBatchContext.window_matrix`) funnel-
shifts the ring into a fresh :class:`~repro.engine.packed.PackedMatrix`,
masking the evicted bits of the oldest word and the pad bits of the newest
— so every statistic (and therefore every P-value) is bit-identical to
recomputing on the equivalent history slice.  Enforced by
``tests/test_streaming_parity.py`` and ``benchmarks/bench_streaming.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.engine import packed as _packed
from repro.engine.context import BatchContext, SequenceContext
from repro.engine.packed import BITS_PER_WORD, WORD_DTYPE, PackedMatrix, pack_matrix
from repro.nist.common import BitsLike, to_bits

__all__ = ["StreamingBatchContext", "StreamingContext"]

_BITS_INGESTED = obs.counter(
    "repro_stream_bits_ingested_total",
    "Bits pushed into streaming contexts, summed over every row.",
)
_WINDOW_ROLLS = obs.counter(
    "repro_stream_window_rolls_total",
    "Incremental O(1) window rolls of the running streaming counters.",
)
_RING_WRAPS = obs.counter(
    "repro_stream_ring_wraps_total",
    "Commits whose word writes wrapped past the end of the packed ring.",
)

#: Summary rings every streaming context maintains (int16 per word).  The
#: cumulative walk rides in a separate int64 ring (`_walk_cum`) so window
#: queries never re-scan deltas.
_SUMMARY_KEYS = ("pop", "trans", "seam", "walk_max", "walk_min")

#: Extra rings needed only by the block-longest statistic.
_RUN_KEYS = ("longest", "prefix", "suffix")


class StreamingBatchContext:
    """One packed ring per device; window statistics roll word-at-a-time.

    Parameters
    ----------
    num_rows:
        Number of parallel streams (fleet devices).  A push appends the
        same number of bits to every row, so a whole fleet round is one
        vectorised push of new words.
    window_bits:
        Size of the trailing evaluation window.  When it is a multiple of
        64 the window statistics are maintained incrementally; otherwise
        queries fall back to the packed kernels over the extracted window.
    capacity_bits:
        Bits of history retained per row (default: ``window_bits``).  The
        rings are sized to this bound — per-row state is O(capacity), never
        O(stream) — and :meth:`window_matrix` can serve any trailing slice
        up to it.
    track_runs:
        Maintain the per-word one-run summary rings that serve the
        block-longest statistic.  Disable for workloads that never read it
        (three table gathers per word cheaper on the push path).
    """

    def __init__(
        self,
        num_rows: int,
        window_bits: int,
        *,
        capacity_bits: Optional[int] = None,
        track_runs: bool = True,
    ) -> None:
        if num_rows < 0:
            raise ValueError("num_rows must be non-negative")
        if window_bits < 1:
            raise ValueError("window_bits must be positive")
        capacity = window_bits if capacity_bits is None else int(capacity_bits)
        if capacity < window_bits:
            raise ValueError("capacity_bits must be at least window_bits")
        self.num_rows = int(num_rows)
        self.window_bits = int(window_bits)
        self.capacity_bits = capacity
        self.track_runs = bool(track_runs)
        self._ring_words = max(1, -(-capacity // BITS_PER_WORD))
        self._aligned = window_bits % BITS_PER_WORD == 0
        self._window_words = window_bits // BITS_PER_WORD
        # Rings are allocated at twice their logical size and every value is
        # written at slot i and i + size (a mirrored ring): any logical span
        # of up to `size` words is then a contiguous view, so window queries
        # never concatenate-copy around the wrap point.
        self._words = np.zeros((self.num_rows, 2 * self._ring_words), dtype=WORD_DTYPE)
        keys = _SUMMARY_KEYS + (_RUN_KEYS if self.track_runs else ())
        self._sums: Dict[str, np.ndarray] = {
            key: np.zeros((self.num_rows, 2 * self._ring_words), dtype=np.int16)
            for key in keys
        }
        # Absolute ±1-walk value at each committed word's START (int64: a
        # stream may run past 2**31 bits).  Window walk extremes then fold
        # `cum + walk_max` directly — no query-time cumulative sum.
        self._walk_cum = np.zeros((self.num_rows, 2 * self._ring_words), dtype=np.int64)
        self._walk_total = np.zeros(self.num_rows, dtype=np.int64)
        self._tail = np.zeros(self.num_rows, dtype=WORD_DTYPE)
        self._tail_len = 0
        self._committed = 0
        self._total_bits = 0
        self._last_bit = np.zeros(self.num_rows, dtype=np.uint8)
        self._win_ones = np.zeros(self.num_rows, dtype=np.int64)
        self._win_trans = np.zeros(self.num_rows, dtype=np.int64)

    # ------------------------------------------------------------------ state
    @property
    def total_bits(self) -> int:
        """Bits pushed so far, per row (the stream position)."""
        return self._total_bits

    @property
    def bits_stored(self) -> int:
        """Trailing bits servable right now: ``min(total, capacity)``."""
        return min(self._total_bits, self.capacity_bits)

    @property
    def tail_bits(self) -> int:
        """Pending sub-word bits not yet committed to the ring (0..63)."""
        return self._tail_len

    @property
    def committed_words(self) -> int:
        """Full 64-bit words committed so far (monotonic, not ring-bounded)."""
        return self._committed

    @property
    def state_nbytes(self) -> int:
        """Bytes held by all per-row state — O(capacity), never O(stream)."""
        total = self._words.nbytes + self._tail.nbytes + self._last_bit.nbytes
        total += self._win_ones.nbytes + self._win_trans.nbytes
        total += self._walk_cum.nbytes + self._walk_total.nbytes
        for ring in self._sums.values():
            total += ring.nbytes
        return int(total)

    @property
    def window_ready(self) -> bool:
        """True when the incremental window statistics are servable.

        Requires a word-aligned window (``window_bits % 64 == 0``), no
        pending tail bits, and a full window of committed words.
        """
        return (
            self._aligned
            and self._tail_len == 0
            and self._committed >= self._window_words
        )

    def __repr__(self) -> str:
        return (
            f"StreamingBatchContext(rows={self.num_rows}, "
            f"window={self.window_bits}, capacity={self.capacity_bits}, "
            f"total_bits={self._total_bits})"
        )

    # ------------------------------------------------------------------ push
    def push(self, data: Union[np.ndarray, PackedMatrix]) -> None:
        """Append the same number of new bits to every row.

        ``data`` is a ``(num_rows, nbits)`` uint8 bit matrix (validated and
        packed through :func:`~repro.engine.packed.pack_matrix`) or an
        already-packed :class:`~repro.engine.packed.PackedMatrix` — e.g.
        word-native producer output — in which case no uint8 pass happens at
        all.  Incoming words are funnel-shifted onto the pending tail, full
        words are committed to the rings with their summaries, and the
        running window counters roll by the evicted/entering word summaries.
        """
        if isinstance(data, PackedMatrix):
            packed_in = data
        else:
            matrix = np.asarray(data)
            if matrix.ndim != 2:
                raise ValueError("push expects a 2-D (rows, bits) matrix or PackedMatrix")
            packed_in = pack_matrix(matrix)
        if packed_in.num_rows != self.num_rows:
            raise ValueError(
                f"expected {self.num_rows} rows, got {packed_in.num_rows}"
            )
        nbits = packed_in.n
        if nbits == 0:
            return
        _BITS_INGESTED.inc(nbits * self.num_rows)
        in_words = packed_in.words
        offset = self._tail_len
        total = offset + nbits
        commit = total // BITS_PER_WORD
        new_tail_len = total % BITS_PER_WORD
        if offset == 0:
            combined = in_words
        else:
            # Funnel-shift the new words up by the tail offset; each word's
            # displaced top bits carry into its successor, and the pending
            # tail fills the first word's low bits.
            width = (total + BITS_PER_WORD - 1) // BITS_PER_WORD
            in_width = in_words.shape[1]
            shift = np.uint64(offset)
            unshift = np.uint64(BITS_PER_WORD - offset)
            combined = np.zeros((self.num_rows, width), dtype=WORD_DTYPE)
            combined[:, :in_width] = in_words << shift
            combined[:, 0] |= self._tail
            carries = in_words >> unshift
            if width > in_width:
                combined[:, 1:] |= carries
            else:
                # The last carry is all zero-pad here (offset + tail bits of
                # the input fit the existing last word).
                combined[:, 1:] |= carries[:, :-1]
        if commit:
            self._commit(np.ascontiguousarray(combined[:, :commit]))
        if new_tail_len:
            self._tail[:] = combined[:, commit] & np.uint64((1 << new_tail_len) - 1)
        else:
            self._tail[:] = 0
        self._tail_len = new_tail_len
        self._total_bits += nbits

    def _commit(self, new_words: np.ndarray) -> None:
        """Fold ``count`` freshly completed words into rings and counters."""
        count = new_words.shape[1]
        if self._committed % self._ring_words + min(count, self._ring_words) > self._ring_words:
            _RING_WRAPS.inc()
        sums = _packed.word_summaries(new_words, track_runs=self.track_runs)
        last = sums["last"]
        prev_last = np.empty((self.num_rows, count), dtype=np.uint8)
        prev_last[:, 0] = self._last_bit
        if count > 1:
            prev_last[:, 1:] = last[:, :-1]
        seam = (prev_last ^ sums["first"]).astype(np.int16)
        entry: Dict[str, np.ndarray] = {
            "pop": sums["pop"].astype(np.int16),
            # inner + seam per word: evicting a word then removes its inner
            # transitions and its seam with the predecessor in one go.  The
            # window's leading seam (against the word *before* the window)
            # is subtracted at query time from the seam ring.
            "trans": sums["inner"].astype(np.int16) + seam,
            "seam": seam,
            "walk_max": sums["walk_max"],
            "walk_min": sums["walk_min"],
        }
        # Word-start cumulative walk: carry-in plus the exclusive prefix of
        # the new deltas (the O(stride) scan happens once here, so window
        # queries never pay an O(window) cumulative sum).
        inclusive = np.cumsum(sums["delta"], axis=1, dtype=np.int64)
        cum_start = (self._walk_total[:, np.newaxis] + inclusive) - sums["delta"]
        self._walk_total += inclusive[:, -1]
        self._write_ring(self._walk_cum, cum_start)
        if self.track_runs:
            for key in _RUN_KEYS:
                entry[key] = sums[key]
        if self._aligned:
            self._roll_counters(entry, count)
        self._write_ring(self._words, new_words)
        for key, values in entry.items():
            self._write_ring(self._sums[key], values)
        self._last_bit[:] = last[:, -1]
        self._committed += count

    def _roll_counters(self, entry: Dict[str, np.ndarray], count: int) -> None:
        """O(1)-per-word roll of the running ones/transition totals."""
        _WINDOW_ROLLS.inc()
        window = self._window_words
        if count >= window:
            # The push replaces the whole window: rebuild from the new
            # summaries alone (nothing old survives).
            self._win_ones = entry["pop"][:, count - window :].sum(axis=1, dtype=np.int64)
            self._win_trans = entry["trans"][:, count - window :].sum(axis=1, dtype=np.int64)
            return
        evict_from = max(0, self._committed - window)
        evict_to = max(0, self._committed + count - window)
        if evict_to > evict_from:
            # Words leaving the window were committed before this push, so
            # their summaries are still in the rings (capacity >= window).
            old_pop = self._take(self._sums["pop"], evict_from, evict_to - evict_from)
            old_trans = self._take(self._sums["trans"], evict_from, evict_to - evict_from)
            self._win_ones -= old_pop.sum(axis=1, dtype=np.int64)
            self._win_trans -= old_trans.sum(axis=1, dtype=np.int64)
        self._win_ones += entry["pop"].sum(axis=1, dtype=np.int64)
        self._win_trans += entry["trans"].sum(axis=1, dtype=np.int64)

    # ------------------------------------------------------------------ rings
    def _take(self, ring: np.ndarray, start_word: int, count: int) -> np.ndarray:
        """Ring values of global word indices [start, start+count).

        Always a contiguous view thanks to the mirrored layout (each value
        lives at slot i and i + size); callers only reduce or copy, never
        mutate.
        """
        size = self._ring_words
        start = start_word % size
        return ring[:, start : start + count]

    def _write_ring(self, ring: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` at the slots of the next global word indices.

        Maintains the mirror invariant ``ring[:, i] == ring[:, i + size]``
        so reads are contiguous; the extra write touches ring-sized arrays
        (64x smaller than the bits) once per push.
        """
        size = self._ring_words
        count = values.shape[1]
        first_index = self._committed
        if count > size:
            # Only the last `size` values survive; their slots still follow
            # the global indices (the ring start is not reset by a big push).
            first_index += count - size
            values = values[:, count - size :]
            count = size
        start = first_index % size
        end = start + count
        ring[:, start:end] = values
        if end <= size:
            ring[:, start + size : end + size] = values
        else:
            # The primary write ran into the mirror half: complete the
            # mirror of the un-wrapped part and the primary of the rest.
            split = size - start
            ring[:, start + size :] = values[:, :split]
            ring[:, : end - size] = values[:, split:]

    # ------------------------------------------------------------------ queries
    def window_stats(self) -> Dict[str, object]:
        """Running shared statistics of the trailing window (no extraction).

        Returns ``ones``, ``num_runs``, ``last_bits`` (per-row arrays) and
        ``walk_extremes`` (the ``(S_max, S_min, S_final)`` triple) computed
        from the rolled counters and summary rings alone — the raw window
        bits are never touched.  Raises ``ValueError`` unless
        :attr:`window_ready`.
        """
        if not self.window_ready:
            raise ValueError(
                "incremental window statistics need a word-aligned full window "
                "(window_bits % 64 == 0, no pending tail bits, window filled); "
                "use window_context() for the general extraction path"
            )
        start = self._committed - self._window_words
        # The running transition total includes the window's leading seam
        # (first word vs its predecessor, which lies outside the window).
        lead_seam = self._take(self._sums["seam"], start, 1)[:, 0].astype(np.int64)
        return {
            "ones": self._win_ones.copy(),
            "num_runs": self._win_trans - lead_seam + 1,
            "walk_extremes": self._window_walk(start),
            "last_bits": self._last_bit.copy(),
        }

    def _window_walk(self, start: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk extremes from per-word summaries (64x narrower than bits)."""
        window = self._window_words
        # Each word's start-of-word cumulative walk is already in the ring;
        # the window base subtracts out after the reductions, and the final
        # walk value is just the running total minus that base (the window
        # always ends at the last committed word).
        cums = self._take(self._walk_cum, start, window)
        base = cums[:, 0].copy()
        s_max = (cums + self._take(self._sums["walk_max"], start, window)).max(axis=1)
        s_min = (cums + self._take(self._sums["walk_min"], start, window)).min(axis=1)
        return s_max - base, s_min - base, self._walk_total - base

    def window_block_sums(self, block_length: int) -> Optional[np.ndarray]:
        """Window per-block ones counts from the popcount ring, or ``None``.

        Served incrementally for word-aligned block lengths that divide into
        the window; other geometries return ``None`` (use
        :meth:`window_context` for the general recompute path).  Raises
        ``ValueError`` unless :attr:`window_ready`.
        """
        if not self.window_ready:
            raise ValueError("incremental block sums need a full aligned window")
        return self._window_block_sums(block_length, self._committed - self._window_words)

    def window_block_longest(self, block_length: int) -> Optional[np.ndarray]:
        """Window per-block longest one-runs from the run rings, or ``None``.

        Needs ``track_runs=True`` and a word-aligned block length dividing
        the window; otherwise ``None``.  Raises ``ValueError`` unless
        :attr:`window_ready`.
        """
        if not self.window_ready:
            raise ValueError("incremental block longest needs a full aligned window")
        return self._window_block_longest(
            block_length, self._committed - self._window_words
        )

    def _window_block_sums(self, block_length: int, start: int) -> Optional[np.ndarray]:
        """Window block sums from the popcount ring (word-aligned blocks)."""
        if block_length <= 0 or block_length % BITS_PER_WORD != 0:
            return None
        if block_length > self.window_bits:
            return None
        words_per_block = block_length // BITS_PER_WORD
        num_blocks = self.window_bits // block_length
        pops = self._take(self._sums["pop"], start, num_blocks * words_per_block)
        blocks = pops.reshape(self.num_rows, num_blocks, words_per_block)
        if words_per_block <= 8:
            # numpy reductions over a short trailing axis are dominated by
            # per-slice overhead; unrolled adds are several times faster at
            # the block lengths the NIST designs use (1-8 words per block).
            acc = blocks[:, :, 0].astype(np.int64)
            for index in range(1, words_per_block):
                acc += blocks[:, :, index]
            return acc
        return blocks.sum(axis=2, dtype=np.int64)

    def _window_block_longest(self, block_length: int, start: int) -> Optional[np.ndarray]:
        """Window block longest-one-runs via the per-word run-summary merge."""
        if not self.track_runs:
            return None
        if block_length <= 0 or block_length % BITS_PER_WORD != 0:
            return None
        if block_length > self.window_bits:
            return None
        words_per_block = block_length // BITS_PER_WORD
        num_blocks = self.window_bits // block_length
        take = num_blocks * words_per_block
        shape = (self.num_rows, num_blocks, words_per_block)
        longs = np.asarray(self._take(self._sums["longest"], start, take)).reshape(shape)
        prefixes = np.asarray(self._take(self._sums["prefix"], start, take)).reshape(shape)
        suffixes = np.asarray(self._take(self._sums["suffix"], start, take)).reshape(shape)
        longest = np.zeros((self.num_rows, num_blocks), dtype=np.int64)
        trailing = np.zeros((self.num_rows, num_blocks), dtype=np.int64)
        for index in range(words_per_block):
            word_prefix = prefixes[:, :, index]
            bridged = trailing + word_prefix
            np.maximum(longest, longs[:, :, index], out=longest)
            np.maximum(longest, bridged, out=longest)
            # prefix == 64 iff the word is all ones: the carried run extends
            # through it whole, same recurrence as the chunk-level kernel.
            trailing = np.where(
                word_prefix == BITS_PER_WORD,
                trailing + BITS_PER_WORD,
                suffixes[:, :, index],
            )
        return longest

    def window_matrix(self, nbits: Optional[int] = None) -> PackedMatrix:
        """The trailing ``nbits`` of every row as a fresh packed matrix.

        Serves any trailing slice up to :attr:`bits_stored` at any bit
        alignment: the ring words are funnel-shifted down so bit 0 of the
        result is the window's first bit, the evicted bits of the oldest
        word fall off the bottom, and the pad bits of the newest word are
        masked to zero (the :class:`~repro.engine.packed.PackedMatrix`
        zero-pad invariant).
        """
        nbits = self.window_bits if nbits is None else int(nbits)
        if nbits < 0:
            raise ValueError("window size must be non-negative")
        if nbits > self.bits_stored:
            raise ValueError(
                f"only the trailing {self.bits_stored} bits are retained "
                f"(capacity {self.capacity_bits}); cannot serve {nbits}"
            )
        if nbits == 0:
            return PackedMatrix(np.zeros((self.num_rows, 0), dtype=WORD_DTYPE), 0)
        start_bit = self._total_bits - nbits
        first_word = start_bit // BITS_PER_WORD
        offset = start_bit % BITS_PER_WORD
        span = (self._total_bits + BITS_PER_WORD - 1) // BITS_PER_WORD - first_word
        out_words = (nbits + BITS_PER_WORD - 1) // BITS_PER_WORD
        committed_count = self._committed - first_word
        ext = np.zeros((self.num_rows, span), dtype=WORD_DTYPE)
        if committed_count > 0:
            ext[:, :committed_count] = self._take(self._words, first_word, committed_count)
        if self._tail_len:
            ext[:, committed_count] = self._tail
        if offset == 0:
            out = np.ascontiguousarray(ext[:, :out_words])
        else:
            shift = np.uint64(offset)
            unshift = np.uint64(BITS_PER_WORD - offset)
            shifted = ext >> shift
            shifted[:, :-1] |= ext[:, 1:] << unshift
            out = np.ascontiguousarray(shifted[:, :out_words])
        remainder = nbits % BITS_PER_WORD
        if remainder:
            out[:, -1] &= np.uint64((1 << remainder) - 1)
        return PackedMatrix(out, nbits)

    def window_context(self, nbits: Optional[int] = None) -> BatchContext:
        """The trailing window as a :class:`BatchContext`, preseeded.

        When the incremental fast path applies (:attr:`window_ready` and the
        default window size), the context is preseeded with the rolled
        statistics and given block-statistic providers, so ``run_batch``
        and the cheap-test registry never recompute them; otherwise a plain
        context over the extracted window is returned (bit-identical, just
        recomputed).  The extracted matrix is a snapshot — later pushes
        never mutate it — and the providers detach automatically once new
        words are committed.
        """
        nbits = self.window_bits if nbits is None else int(nbits)
        context = BatchContext(self.window_matrix(nbits))
        if nbits != self.window_bits or not self.window_ready:
            return context
        stats = self.window_stats()
        start = self._committed - self._window_words
        generation = self._committed

        def block_sums_provider(block_length: int) -> Optional[np.ndarray]:
            if self._committed != generation:
                return None
            return self._window_block_sums(block_length, start)

        def block_longest_provider(block_length: int) -> Optional[np.ndarray]:
            if self._committed != generation:
                return None
            return self._window_block_longest(block_length, start)

        ones = stats["ones"]
        num_runs = stats["num_runs"]
        walk = stats["walk_extremes"]
        last = stats["last_bits"]
        assert isinstance(ones, np.ndarray) and isinstance(num_runs, np.ndarray)
        assert isinstance(walk, tuple) and isinstance(last, np.ndarray)
        return context.preseed(
            ones=ones,
            num_runs=num_runs,
            walk_extremes=walk,
            last_bits=last,
            block_sums_provider=block_sums_provider,
            block_longest_provider=block_longest_provider,
        )

    # ------------------------------------------------------------------ state dict
    def state_dict(self) -> Dict[str, Any]:
        """The full streaming state as plain values (fleet snapshot support).

        Only the primary ring halves are captured: the mirrored layout keeps
        ``ring[:, i] == ring[:, i + size]`` as an invariant, so
        ``ring[:, :size]`` fully determines each ring and the snapshot is
        half the ring bytes.  Arrays are copies — later pushes never mutate
        a captured state.  The counterpart is :meth:`load_state` /
        :meth:`from_state`, which restore a context whose subsequent pushes
        and window statistics are bit-identical to the uninterrupted run.
        """
        size = self._ring_words
        keys = _SUMMARY_KEYS + (_RUN_KEYS if self.track_runs else ())
        return {
            "version": 1,
            "num_rows": self.num_rows,
            "window_bits": self.window_bits,
            "capacity_bits": self.capacity_bits,
            "track_runs": self.track_runs,
            "committed": self._committed,
            "total_bits": self._total_bits,
            "tail_len": self._tail_len,
            "tail": self._tail.copy(),
            "last_bit": self._last_bit.copy(),
            "win_ones": self._win_ones.copy(),
            "win_trans": self._win_trans.copy(),
            "walk_total": self._walk_total.copy(),
            "words": self._words[:, :size].copy(),
            "walk_cum": self._walk_cum[:, :size].copy(),
            "sums": {key: self._sums[key][:, :size].copy() for key in keys},
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture into this context.

        The context's geometry (rows, window, capacity, ``track_runs``) must
        match the captured one.  Ring mirrors are rebuilt from the captured
        primary halves.  Captures that still carry the retired ``"backend"``
        key load unchanged: statistics were bit-identical on every backend,
        so the key is ignored.
        """
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported streaming state version {state.get('version')!r}"
            )
        for key, expected in (
            ("num_rows", self.num_rows),
            ("window_bits", self.window_bits),
            ("capacity_bits", self.capacity_bits),
            ("track_runs", self.track_runs),
        ):
            if state[key] != expected:
                raise ValueError(
                    f"streaming state mismatch: {key} is {state[key]!r}, "
                    f"this context has {expected!r}"
                )
        self._committed = int(state["committed"])
        self._total_bits = int(state["total_bits"])
        self._tail_len = int(state["tail_len"])
        self._tail[:] = np.asarray(state["tail"], dtype=WORD_DTYPE)
        self._last_bit[:] = np.asarray(state["last_bit"], dtype=np.uint8)
        self._win_ones[:] = np.asarray(state["win_ones"], dtype=np.int64)
        self._win_trans[:] = np.asarray(state["win_trans"], dtype=np.int64)
        self._walk_total[:] = np.asarray(state["walk_total"], dtype=np.int64)
        self._restore_ring(self._words, np.asarray(state["words"], dtype=WORD_DTYPE))
        self._restore_ring(
            self._walk_cum, np.asarray(state["walk_cum"], dtype=np.int64)
        )
        for key in self._sums:
            self._restore_ring(
                self._sums[key], np.asarray(state["sums"][key], dtype=np.int16)
            )

    def _restore_ring(self, ring: np.ndarray, primary: np.ndarray) -> None:
        """Load a primary ring half and rebuild its mirror."""
        size = self._ring_words
        if primary.shape != (self.num_rows, size):
            raise ValueError(
                f"ring state has shape {primary.shape}, "
                f"expected {(self.num_rows, size)}"
            )
        ring[:, :size] = primary
        ring[:, size:] = primary

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "StreamingBatchContext":
        """Build a fresh context from a :meth:`state_dict` capture."""
        context = cls(
            int(state["num_rows"]),
            int(state["window_bits"]),
            capacity_bits=int(state["capacity_bits"]),
            track_runs=bool(state["track_runs"]),
        )
        context.load_state(state)
        return context


class StreamingContext:
    """Single-stream facade over a one-row :class:`StreamingBatchContext`.

    The monitor-side object: one device's live bit stream, pushed in
    arbitrary-size chunks (any :data:`~repro.nist.common.BitsLike`, or a
    one-row :class:`~repro.engine.packed.PackedMatrix` for word-native
    producers), with the trailing window servable as a packed matrix, a
    preseeded batch context, or a per-sequence context.
    """

    def __init__(
        self,
        window_bits: int,
        *,
        capacity_bits: Optional[int] = None,
        track_runs: bool = True,
    ) -> None:
        self._batch = StreamingBatchContext(
            1, window_bits, capacity_bits=capacity_bits, track_runs=track_runs
        )

    @property
    def batch(self) -> StreamingBatchContext:
        """The underlying one-row batch context."""
        return self._batch

    @property
    def window_bits(self) -> int:
        return self._batch.window_bits

    @property
    def capacity_bits(self) -> int:
        return self._batch.capacity_bits

    @property
    def total_bits(self) -> int:
        return self._batch.total_bits

    @property
    def bits_stored(self) -> int:
        return self._batch.bits_stored

    @property
    def tail_bits(self) -> int:
        return self._batch.tail_bits

    @property
    def state_nbytes(self) -> int:
        return self._batch.state_nbytes

    @property
    def window_ready(self) -> bool:
        return self._batch.window_ready

    def push(self, bits: Union[BitsLike, PackedMatrix]) -> None:
        """Append a chunk of the stream (any size, down to a single bit)."""
        if isinstance(bits, PackedMatrix):
            self._batch.push(bits)
            return
        self._batch.push(to_bits(bits)[np.newaxis, :])

    def window_stats(self) -> Dict[str, object]:
        """Rolled window statistics (see :meth:`StreamingBatchContext.window_stats`)."""
        return self._batch.window_stats()

    def window_matrix(self, nbits: Optional[int] = None) -> PackedMatrix:
        """The trailing window as a one-row packed matrix."""
        return self._batch.window_matrix(nbits)

    def window_context(self, nbits: Optional[int] = None) -> BatchContext:
        """The trailing window as a (preseeded when possible) batch context."""
        return self._batch.window_context(nbits)

    def sequence_context(self, nbits: Optional[int] = None) -> SequenceContext:
        """The trailing window as a per-sequence context."""
        return self._batch.window_context(nbits).context(0)

    def state_dict(self) -> Dict[str, Any]:
        """The stream state as plain values (see :meth:`StreamingBatchContext.state_dict`)."""
        return self._batch.state_dict()

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture into this stream."""
        self._batch.load_state(state)

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "StreamingContext":
        """Build a fresh single-row stream from a :meth:`state_dict` capture."""
        if state.get("num_rows") != 1:
            raise ValueError("StreamingContext state must have exactly one row")
        stream = cls(
            int(state["window_bits"]),
            capacity_bits=int(state["capacity_bits"]),
            track_runs=bool(state["track_runs"]),
        )
        stream.load_state(state)
        return stream

    def __repr__(self) -> str:
        return (
            f"StreamingContext(window={self.window_bits}, "
            f"capacity={self.capacity_bits}, total_bits={self.total_bits})"
        )
