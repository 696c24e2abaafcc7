"""Shared-statistic contexts: the software analogue of the paper's counters.

The paper's central resource-sharing idea is that the hardware block derives
the common sub-statistics of a bit sequence (ones count, run boundaries,
block sums, cyclic pattern counters) *once* and feeds every on-the-fly test
from the same registers.  :class:`BatchContext` reproduces that in software
for a batch of equal-length sequences: each statistic is computed lazily,
with one pass of the packed 64-bits-per-word kernels of
:mod:`repro.engine.packed` over the whole ``(num_sequences, n)`` batch, and
cached.  :class:`SequenceContext` is the per-sequence view the tests read:
:meth:`BatchContext.context` returns row views of a batch, and
``SequenceContext(bits)`` is row 0 of a one-row batch, so every statistic
has one implementation.

Every statistic is integer-valued, so a test that computes its decision
statistic from context values produces *bit-identical* P-values to the
reference implementation that re-scans the raw bits (asserted by
``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.engine import packed as _packed
from repro.engine.packed import PackedMatrix, pack_matrix
from repro.nist.common import BitsLike, to_bits

__all__ = ["SequenceContext", "BatchContext"]

_KERNEL_CALLS = obs.counter(
    "repro_packed_kernel_invocations_total",
    "Packed (64-bits-per-word) kernel dispatches from BatchContext, by kernel.",
    labels=("kernel",),
)

#: A preseeded block-statistic source: given a block length, return the
#: ``(num_sequences, num_blocks)`` statistic array, or ``None`` to decline
#: (the context then falls back to its own kernels).
BlockProvider = Callable[[int], Optional[np.ndarray]]


class SupportsWindowContext(Protocol):
    """Anything that can serve its trailing window as a :class:`BatchContext`.

    The structural type of :class:`repro.engine.streaming.StreamingContext`
    and :class:`~repro.engine.streaming.StreamingBatchContext`; spelled as a
    protocol so this module never imports the streaming layer it underpins.
    """

    def window_context(self, nbits: Optional[int] = None) -> "BatchContext":
        ...


def _window_weights(m: int) -> np.ndarray:
    """MSB-first bit weights of an ``m``-bit window."""
    return 1 << np.arange(m - 1, -1, -1)


def _matrix_block_longest_one_runs(matrix: np.ndarray, block_length: int) -> np.ndarray:
    """Longest run of ones inside each ``block_length``-bit block, per row.

    Works on the flattened zero-padded block matrix: a zero column appended
    to every block guarantees runs of ones never cross block (or row)
    boundaries, so one global run-length scan labels every block at once.
    """
    rows, length = matrix.shape
    num_blocks = length // block_length
    blocks = matrix[:, : num_blocks * block_length].reshape(rows * num_blocks, block_length)
    padded = np.zeros((rows * num_blocks, block_length + 1), dtype=np.int8)
    padded[:, :block_length] = blocks
    flat = np.concatenate([[0], padded.ravel()])
    edges = np.diff(flat.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    longest = np.zeros(rows * num_blocks, dtype=np.int64)
    if starts.size:
        np.maximum.at(longest, starts // (block_length + 1), ends - starts)
    return longest.reshape(rows, num_blocks)


def _run_values_and_lengths(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-run ``(bit value, run length)`` arrays of a 1-D bit sequence."""
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(arr.astype(np.int8))) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [arr.size]])
    return arr[starts].astype(np.int64), (ends - starts).astype(np.int64)


class SequenceContext:
    """Shared statistics of one bit sequence: a row view of a batch.

    Tests draw their raw statistics (the values the paper's hardware counters
    would hold) from the context; each statistic is derived at most once per
    batch and shared by every test that needs it — e.g. the serial and
    approximate-entropy tests share the 4-bit cyclic pattern counters (and
    the 3-/2-bit counters folded from them), and the frequency, runs and
    FIPS monobit tests share the ones count.

    Every statistic is read out of a :class:`BatchContext`: a batch-backed
    context (:meth:`BatchContext.context`) reads its row of the shared
    arrays, and ``SequenceContext(bits)`` wraps its bits in a one-row batch,
    so each statistic has exactly one implementation.

    Parameters
    ----------
    bits:
        Any :data:`~repro.nist.common.BitsLike` bit-sequence representation.
    """

    def __init__(self, bits: BitsLike, *, _batch: Optional["BatchContext"] = None, _row: int = 0):
        if _batch is None:
            _batch = BatchContext(to_bits(bits)[np.newaxis, :])
        self._batch = _batch
        self._row = _row
        # The row's uint8 bits are resolved lazily: on a packed batch whose
        # statistics all have packed kernels they are never unpacked.
        self._bits: Optional[np.ndarray] = None
        self._runs: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------- basics
    @property
    def bits(self) -> np.ndarray:
        """The raw uint8 0/1 array (for tests without a shared statistic).

        On a packed-only batch this unpacks just this context's row, so one
        scalar-path test cannot force the whole batch matrix into memory.
        """
        if self._bits is None:
            self._bits = self._batch.row_bits(self._row)
        return self._bits

    @property
    def n(self) -> int:
        """Sequence length."""
        return self._batch.n

    def last_bit(self) -> int:
        """The final bit of the sequence (without unpacking a packed batch)."""
        if self.n == 0:
            raise ValueError("empty sequence has no last bit")
        return int(self._batch.last_bits()[self._row])

    @property
    def ones(self) -> int:
        """Total number of ones (the hardware's frequency counter)."""
        return int(self._batch.ones()[self._row])

    @property
    def zeros(self) -> int:
        """Total number of zeros."""
        return self.n - self.ones

    # ------------------------------------------------------------- walks / runs
    def walk_extremes(self) -> Tuple[int, int, int]:
        """``(S_max, S_min, S_final)`` of the ±1 random walk (cusum test)."""
        s_max, s_min, s_final = self._batch.walk_extremes()
        return int(s_max[self._row]), int(s_min[self._row]), int(s_final[self._row])

    def num_runs(self) -> int:
        """Total number of runs (V_n(obs) of the runs test)."""
        return int(self._batch.num_runs()[self._row])

    def runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-run ``(bit values, run lengths)`` arrays, in sequence order."""
        if self._runs is None:
            self._runs = _run_values_and_lengths(self.bits)
        return self._runs

    def run_length_histogram(self, cap: int = 6) -> Dict[int, Dict[int, int]]:
        """``{bit: {capped length: count}}`` with lengths >= ``cap`` pooled.

        The FIPS runs test reads this directly; the capped layout matches
        :func:`repro.fips.battery._run_lengths`.
        """
        values, lengths = self.runs()
        histogram = {
            0: {length: 0 for length in range(1, cap + 1)},
            1: {length: 0 for length in range(1, cap + 1)},
        }
        capped = np.minimum(lengths, cap)
        for value in (0, 1):
            counts = np.bincount(capped[values == value], minlength=cap + 1)
            for length in range(1, cap + 1):
                histogram[value][length] = int(counts[length]) if length < counts.size else 0
        return histogram

    def longest_run(self) -> int:
        """Length of the longest run of identical bits (FIPS long-run test)."""
        _, lengths = self.runs()
        return int(lengths.max()) if lengths.size else 0

    # ------------------------------------------------------------- block stats
    def block_sums(self, block_length: int) -> np.ndarray:
        """Ones count of each full ``block_length``-bit block (int64)."""
        return self._batch.block_sums(block_length)[self._row]

    def block_longest_one_runs(self, block_length: int) -> np.ndarray:
        """Longest run of ones within each full block (longest-run test)."""
        return self._batch.block_longest_one_runs(block_length)[self._row]

    def block_value_counts(self, block_length: int) -> np.ndarray:
        """Histogram of non-overlapping block values (FIPS poker test)."""
        return self._batch.block_value_counts(block_length)[self._row]

    # ------------------------------------------------------------- pattern stats
    def pattern_counts(self, m: int, *, cyclic: bool = True) -> np.ndarray:
        """Occurrences of every overlapping ``m``-bit pattern (2^m entries)."""
        return self._batch.pattern_counts(m, cyclic=cyclic)[self._row]

    def template_block_counts(
        self, template: Sequence[int], block_length: int, num_blocks: int
    ) -> np.ndarray:
        """Occurrences of ``template`` wholly inside each block (template tests)."""
        return self._batch.template_block_counts(
            template, block_length, num_blocks
        )[self._row]


class BatchContext:
    """Shared statistics of a batch of equal-length sequences.

    Every statistic is computed lazily with one vectorised pass over the
    ``(num_sequences, n)`` bit matrix and cached; per-sequence contexts
    created with :meth:`context` read their row from the shared arrays.

    The statistics run on the 64-bits-per-word :mod:`repro.engine.packed`
    kernels over a memoized packed view of the matrix.  The input alone
    selects the byte-per-bit route, and only where no packed kernel exists:
    empty sequences (``n = 0``), :meth:`block_sums` and
    :meth:`block_longest_one_runs` geometries outside
    :func:`~repro.engine.packed.supports_block_ones` /
    :func:`~repro.engine.packed.supports_block_longest_one_runs`, and
    :meth:`block_value_counts`.
    The constructor also accepts a prepacked
    :class:`~repro.engine.packed.PackedMatrix` directly, in which case the
    uint8 matrix is only materialised if a byte-per-bit statistic needs it.
    """

    @staticmethod
    def as_matrix(sequences: Union[np.ndarray, Sequence[BitsLike]]) -> np.ndarray:
        """Normalise ``sequences`` to a validated 2-D uint8 bit matrix.

        A uint8 array that already has the right shape — e.g. one produced
        by :meth:`~repro.trng.source.EntropySource.generate_matrix` — is
        passed through without copying, so source blocks flow into the
        engine with no intermediate :class:`BitSequence` materialisation.
        """
        matrix = np.ascontiguousarray(sequences, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D (num_sequences, n) bit matrix")
        if matrix.size and int(matrix.max()) > 1:
            raise ValueError("bit matrix must contain only 0 and 1 values")
        return matrix

    @classmethod
    def from_blocks(cls, blocks: Iterable[BitsLike]) -> "BatchContext":
        """Batch context stacking equal-length sequences (any ``BitsLike``).

        A single sequence becomes a one-row batch and an empty iterable an
        empty one; mixed lengths raise ``ValueError`` naming the lengths.
        """
        arrays = [to_bits(block) for block in blocks]
        lengths = sorted({arr.size for arr in arrays})
        if len(lengths) > 1:
            raise ValueError(
                f"a batch needs equal-length sequences, got lengths {lengths}"
            )
        if not arrays:
            return cls(np.zeros((0, 0), dtype=np.uint8))
        return cls(np.vstack(arrays))

    @classmethod
    def from_sequences(
        cls,
        sequences: Union["BatchContext", PackedMatrix, np.ndarray, Iterable[BitsLike]],
    ) -> "BatchContext":
        """The batch context of any engine input.

        A prebuilt context (e.g. a preseeded streaming window) is returned
        as-is, a :class:`~repro.engine.packed.PackedMatrix` is wrapped, a
        2-D ``(num_sequences, n)`` matrix is validated by :meth:`as_matrix`
        without copying, and any other iterable of sequences is stacked by
        :meth:`from_blocks`.
        """
        if isinstance(sequences, BatchContext):
            return sequences
        if isinstance(sequences, PackedMatrix):
            return cls(sequences)
        if isinstance(sequences, np.ndarray) and sequences.ndim == 2:
            return cls(cls.as_matrix(sequences))
        return cls.from_blocks(sequences)

    def __init__(self, matrix: Union[np.ndarray, PackedMatrix, Sequence[BitsLike]]):
        if isinstance(matrix, PackedMatrix):
            # Prepacked input (e.g. the fleet scheduler's round matrix):
            # the uint8 view is only materialised if a byte-per-bit
            # statistic asks for it (or the packer retained its source).
            self._packed: Optional[PackedMatrix] = matrix
            self._matrix: Optional[np.ndarray] = matrix.source
            self._n = matrix.n
            self._num_sequences = matrix.num_rows
        else:
            matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
            if matrix.ndim != 2:
                raise ValueError("BatchContext expects a 2-D (num_sequences, n) bit matrix")
            self._matrix = matrix
            self._packed = None
            self._num_sequences, self._n = matrix.shape
        self._ones: Optional[np.ndarray] = None
        self._last_bits: Optional[np.ndarray] = None
        self._walk_extremes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._num_runs: Optional[np.ndarray] = None
        self._block_sums: Dict[int, np.ndarray] = {}
        self._block_longest: Dict[int, np.ndarray] = {}
        self._pattern_counts: Dict[Tuple[int, bool], np.ndarray] = {}
        self._template_counts: Dict[Tuple[Tuple[int, ...], int, int], np.ndarray] = {}
        self._block_value_counts: Dict[int, np.ndarray] = {}
        self._block_sums_provider: Optional[BlockProvider] = None
        self._block_longest_provider: Optional[BlockProvider] = None

    @classmethod
    def from_streaming(
        cls, stream: SupportsWindowContext, nbits: Optional[int] = None
    ) -> "BatchContext":
        """The trailing window of a streaming context, as a batch context.

        The bridge the tentpole names: ``run_batch`` and the cheap-test
        registry run unchanged on the rolled window, because the streaming
        side hands back a regular :class:`BatchContext` preseeded with its
        incrementally maintained statistics.  Accepts anything exposing
        ``window_context()`` — a ``StreamingContext`` or a
        ``StreamingBatchContext``.
        """
        return stream.window_context(nbits)

    def preseed(
        self,
        *,
        ones: Optional[np.ndarray] = None,
        num_runs: Optional[np.ndarray] = None,
        walk_extremes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
        last_bits: Optional[np.ndarray] = None,
        block_sums_provider: Optional[BlockProvider] = None,
        block_longest_provider: Optional[BlockProvider] = None,
    ) -> "BatchContext":
        """Seed statistic caches with externally maintained values.

        The streaming contexts roll these statistics incrementally and hand
        them over here so the batch executor never recomputes them.  Seeded
        arrays must match the batch shape; block providers are consulted on
        cache miss and may decline (return ``None``) to fall back to the
        regular kernels.  Callers guarantee seeded values equal what the
        context would compute — parity is enforced by the streaming test
        suite, not re-checked here.  Returns ``self`` for chaining.
        """
        expected = (self.num_sequences,)
        for name, value in (("ones", ones), ("num_runs", num_runs), ("last_bits", last_bits)):
            if value is not None and value.shape != expected:
                raise ValueError(f"preseed {name} has shape {value.shape}, expected {expected}")
        if ones is not None:
            self._ones = ones
        if num_runs is not None:
            self._num_runs = num_runs
        if walk_extremes is not None:
            if any(part.shape != expected for part in walk_extremes):
                raise ValueError(f"preseed walk_extremes parts must have shape {expected}")
            self._walk_extremes = walk_extremes
        if last_bits is not None:
            self._last_bits = last_bits
        if block_sums_provider is not None:
            self._block_sums_provider = block_sums_provider
        if block_longest_provider is not None:
            self._block_longest_provider = block_longest_provider
        return self

    @property
    def matrix(self) -> np.ndarray:
        """The ``(num_sequences, n)`` uint8 bit matrix (unpacked on demand)."""
        if self._matrix is None:
            self._matrix = self._packed.unpack()
        return self._matrix

    def packed(self) -> PackedMatrix:
        """The memoized packed-word view of the matrix (packed on demand)."""
        if self._packed is None:
            self._packed = pack_matrix(self._matrix, keep_source=True)
        return self._packed

    def packed_only(self) -> Optional[PackedMatrix]:
        """The packed view when the uint8 matrix is *not* materialised.

        Chunked consumers (the batched heavy kernels) use this to unpack
        row windows on the fly instead of forcing the full matrix; returns
        ``None`` when the uint8 matrix already exists (then slicing it is
        free).
        """
        if self._matrix is None:
            return self._packed
        return None

    def row_bits(self, row: int) -> np.ndarray:
        """One sequence's uint8 bits, unpacking only that row when packed."""
        if self._matrix is not None:
            return self._matrix[row]
        return self._packed.row(row)

    @property
    def num_sequences(self) -> int:
        return int(self._num_sequences)

    @property
    def n(self) -> int:
        return int(self._n)

    def context(self, row: int) -> SequenceContext:
        """A per-sequence context backed by this batch's shared statistics."""
        if not 0 <= row < self.num_sequences:
            raise IndexError(f"row {row} out of range for batch of {self.num_sequences}")
        return SequenceContext(None, _batch=self, _row=row)

    def contexts(self) -> Tuple[SequenceContext, ...]:
        """One batch-backed context per sequence."""
        return tuple(self.context(i) for i in range(self.num_sequences))

    # ------------------------------------------------------------- statistics
    def ones(self) -> np.ndarray:
        if self._ones is None:
            if self._n > 0:
                _KERNEL_CALLS.inc(kernel="ones_count")
                self._ones = _packed.ones_count(self.packed())
            else:
                self._ones = self.matrix.sum(axis=1, dtype=np.int64)
        return self._ones

    def last_bits(self) -> np.ndarray:
        """The final bit of every sequence (uint8, no unpack on packed input)."""
        if self._last_bits is None:
            if self._n > 0:
                _KERNEL_CALLS.inc(kernel="last_bits")
                self._last_bits = _packed.last_bits(self.packed())
            else:
                self._last_bits = self.matrix[:, -1]
        return self._last_bits

    def walk_extremes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._walk_extremes is None:
            if self._n > 0:
                _KERNEL_CALLS.inc(kernel="walk_extremes")
                self._walk_extremes = _packed.walk_extremes(self.packed())
            else:
                zeros = np.zeros(self.num_sequences, dtype=np.int64)
                self._walk_extremes = (zeros, zeros, zeros)
        return self._walk_extremes

    def num_runs(self) -> np.ndarray:
        if self._num_runs is None:
            if self._n > 0:
                _KERNEL_CALLS.inc(kernel="transition_counts")
                self._num_runs = _packed.transition_counts(self.packed()) + 1
            else:
                self._num_runs = np.zeros(self.num_sequences, dtype=np.int64)
        return self._num_runs

    def block_sums(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_sums:
            if self._block_sums_provider is not None:
                provided = self._block_sums_provider(block_length)
                if provided is not None:
                    self._block_sums[block_length] = provided
                    return provided
            if _packed.supports_block_ones(block_length, self.n):
                _KERNEL_CALLS.inc(kernel="block_ones")
                self._block_sums[block_length] = _packed.block_ones(
                    self.packed(), block_length
                )
            else:
                num_blocks = self.n // block_length
                trimmed = self.matrix[:, : num_blocks * block_length]
                self._block_sums[block_length] = trimmed.reshape(
                    self.num_sequences, num_blocks, block_length
                ).sum(axis=2, dtype=np.int64)
        return self._block_sums[block_length]

    def block_longest_one_runs(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_longest:
            if self._block_longest_provider is not None:
                provided = self._block_longest_provider(block_length)
                if provided is not None:
                    self._block_longest[block_length] = provided
                    return provided
            if _packed.supports_block_longest_one_runs(block_length, self.n):
                _KERNEL_CALLS.inc(kernel="block_longest_one_runs")
                self._block_longest[block_length] = _packed.block_longest_one_runs(
                    self.packed(), block_length
                )
            else:
                self._block_longest[block_length] = _matrix_block_longest_one_runs(
                    self.matrix, block_length
                )
        return self._block_longest[block_length]

    def block_value_counts(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_value_counts:
            num_blocks = self.n // block_length
            trimmed = self.matrix[:, : num_blocks * block_length].astype(np.int64)
            values = trimmed.reshape(
                self.num_sequences, num_blocks, block_length
            ) @ _window_weights(block_length)
            self._block_value_counts[block_length] = self._bincount_rows(
                values, 1 << block_length
            )
        return self._block_value_counts[block_length]

    def pattern_counts(self, m: int, *, cyclic: bool = True) -> np.ndarray:
        """``(num_sequences, 2**m)`` overlapping ``m``-bit pattern counts.

        Cyclic counts come from :func:`~repro.engine.packed.cyclic_pattern_counts`
        or, exactly, by folding the cached counts of a longer pattern: the
        ``(m-1)``-bit prefix of each cyclic window is itself a cyclic window,
        so ``c[m-1] = c[m][:, 0::2] + c[m][:, 1::2]``.  The serial test's
        ``m, m-1, m-2`` and approximate entropy's ``m, m+1`` therefore cost
        one kernel call per batch.  Non-cyclic counts drop the ``m - 1``
        windows that wrap from the tail into the head.
        """
        key = (m, cyclic)
        if key not in self._pattern_counts:
            if m < 0:
                raise ValueError("pattern length m must be non-negative")
            if m > self.n and self.n > 0:
                raise ValueError(f"pattern length m={m} exceeds sequence length n={self.n}")
            if m == 0:
                counts = np.full((self.num_sequences, 1), self.n, dtype=np.int64)
            elif self.n == 0:
                counts = np.zeros((self.num_sequences, 1 << m), dtype=np.int64)
            elif cyclic:
                counts = self._cyclic_pattern_counts(m)
            else:
                counts = self.pattern_counts(m) - self._wrap_pattern_counts(m)
            self._pattern_counts[key] = counts
        return self._pattern_counts[key]

    def _cyclic_pattern_counts(self, m: int) -> np.ndarray:
        longer = [k for (k, cyclic) in self._pattern_counts if cyclic and k > m]
        if not longer:
            _KERNEL_CALLS.inc(kernel="cyclic_pattern_counts")
            return _packed.cyclic_pattern_counts(self.packed(), m)
        counts = self._pattern_counts[(min(longer), True)]
        for _ in range(min(longer) - m):
            counts = counts[:, 0::2] + counts[:, 1::2]
        return counts

    def _wrap_pattern_counts(self, m: int) -> np.ndarray:
        """Counts of the ``m - 1`` cyclic windows that wrap past the last bit."""
        n = self.n
        seam = _packed.stream_bits(
            self.packed(), np.r_[n - m + 1 : n, 0 : m - 1].astype(np.int64)
        ).astype(np.int64)
        values = np.zeros((self.num_sequences, m - 1), dtype=np.int64)
        for offset in range(m):
            values = 2 * values + seam[:, offset : offset + m - 1]
        return self._bincount_rows(values, 1 << m)

    def template_block_counts(
        self, template: Sequence[int], block_length: int, num_blocks: int
    ) -> np.ndarray:
        """``(num_sequences, num_blocks)`` occurrences of ``template`` per block.

        A window counts for block ``b`` when it lies wholly inside it, and
        occurrences may overlap (the overlapping template test's count; for
        an aperiodic template also the non-overlapping test's).
        """
        key = (tuple(int(bit) for bit in template), block_length, num_blocks)
        if key not in self._template_counts:
            _KERNEL_CALLS.inc(kernel="template_block_counts")
            self._template_counts[key] = _packed.template_block_counts(
                self.packed(), key[0], block_length, num_blocks
            )
        return self._template_counts[key]

    def _bincount_rows(self, values: np.ndarray, num_bins: int) -> np.ndarray:
        """Per-row bincount via one flat bincount with row offsets."""
        rows = values.shape[0]
        dtype = np.int32 if rows * num_bins < (1 << 31) else np.int64
        offsets = np.arange(rows, dtype=dtype)[:, np.newaxis] * num_bins
        flat = np.bincount(
            (values.astype(dtype, copy=False) + offsets).ravel(),
            minlength=rows * num_bins,
        )
        return flat.reshape(rows, num_bins).astype(np.int64)
