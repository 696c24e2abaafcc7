"""Base classes for entropy sources.

An entropy source is anything that produces a stream of bits.  The hardware
testing block (:mod:`repro.hwtests`) can observe that stream one bit per
clock cycle, exactly as the paper's RTL reads the TRNG output — but the
*canonical* production interface is block-native: every source implements
:meth:`EntropySource._generate_block`, a truly vectorised generator of the
next ``n`` stream bits, and :meth:`EntropySource.next_bit` is a thin
compatibility shim that serves single bits out of an internal block buffer.

Two invariants make the two interfaces interchangeable:

* **Split invariance** — a source's stream depends only on its seed and
  state, never on how the stream is chopped into blocks:
  ``generate_block(a + b)`` equals ``generate_block(a)`` followed by
  ``generate_block(b)``, bit for bit.  Every implementation in this package
  maintains it (asserted source by source in
  ``tests/test_trng_block_parity.py``).
* **Shim equivalence** — because of split invariance, ``n`` successive
  ``next_bit()`` calls return exactly ``generate_block(n)`` for the same
  seed, regardless of the buffer refill granularity
  (:attr:`EntropySource.block_bits`).

Sources whose *observable* state tracks the stream position (an aging
source's ``age_bits``, an attack's ``active`` flag, a replay's
``remaining_bits``) keep ``block_bits = 1`` so the shim never reads ahead of
what the consumer has seen; pure generators with no positional observables
buffer a whole block per refill.

Legacy subclasses that override :meth:`next_bit` directly (without providing
``_generate_block``) keep working: :meth:`generate_block` detects that the
bit-serial override is the most-derived behaviour and falls back to looping
it.  Only direct subclasses of :class:`EntropySource`/:class:`SeededSource`
should rely on this; overriding ``next_bit`` *below* a block-native source
makes bulk generation fall back to the per-bit path as well.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from repro.nist.common import BitSequence

__all__ = ["EntropySource", "SeededSource"]


@lru_cache(maxsize=None)
def _block_native(cls: type) -> bool:
    """True when ``cls``'s block implementation is at least as derived as its
    bit-serial one, i.e. ``_generate_block`` is the authoritative stream.

    A class that overrides ``next_bit`` *below* the class providing
    ``_generate_block`` (the legacy bit-serial extension pattern) must be
    served by looping its ``next_bit`` so the override is honoured.
    """
    mro = cls.__mro__
    next_bit_cls = next(k for k in mro if "next_bit" in vars(k))
    block_cls = next((k for k in mro if "_generate_block" in vars(k)), None)
    if block_cls is None or block_cls is EntropySource:
        return False
    return mro.index(block_cls) <= mro.index(next_bit_cls)


class EntropySource(abc.ABC):
    """Abstract block-native entropy source.

    Concrete sources implement :meth:`_generate_block`; single-bit access,
    bulk generation and iteration are provided on top of it.  Sources are
    stateful: consecutive calls continue the same underlying stream.
    """

    #: Refill granularity of the ``next_bit`` buffer.  Sources with
    #: position-dependent observable state keep the default of 1 (no
    #: read-ahead); pure generators raise it to amortise the numpy call
    #: overhead across legacy bit-serial loops.
    block_bits: int = 1

    # Lazily initialised so subclasses need not call ``__init__``.
    _buffer: Optional[np.ndarray] = None
    _cursor: int = 0

    # ------------------------------------------------------------- block API
    def _generate_block(self, n: int) -> np.ndarray:
        """Produce the next ``n`` stream bits as a uint8 array (subclass hook).

        Implementations must be split-invariant: the emitted stream may not
        depend on how it is partitioned into blocks.
        """
        raise TypeError(
            f"{type(self).__name__} implements neither _generate_block() nor "
            "next_bit(); a concrete entropy source must provide one of them"
        )

    def generate_block(self, n: int) -> np.ndarray:
        """Produce the next ``n`` bits of the stream as a uint8 numpy array.

        This is the canonical bulk interface: it first drains any bits the
        ``next_bit`` shim has buffered (so mixed bit-serial/block consumers
        always see one contiguous stream) and generates the remainder with
        the vectorised :meth:`_generate_block` — or, for legacy subclasses
        that only override :meth:`next_bit`, by looping the bit-serial path.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if not _block_native(type(self)):
            # Legacy bit-serial override: loop it for the whole block.  Any
            # buffered bits belong to the *parent* stream (they were staged
            # by a super().next_bit() chain) and are consumed through that
            # same chain, so they must not be drained raw here.
            return np.fromiter(
                (self.next_bit() for _ in range(n)), dtype=np.uint8, count=n
            )
        buffered: Optional[np.ndarray] = None
        if self._buffer is not None and self._cursor < self._buffer.size:
            take = min(n, self._buffer.size - self._cursor)
            buffered = self._buffer[self._cursor : self._cursor + take].copy()
            self._cursor += take
        remaining = n - (buffered.size if buffered is not None else 0)
        if remaining == 0:
            return buffered if buffered is not None else np.zeros(0, dtype=np.uint8)
        fresh = np.ascontiguousarray(self._generate_block(remaining), dtype=np.uint8)
        if buffered is None:
            return fresh
        return np.concatenate([buffered, fresh])

    def generate_matrix(self, num_sequences: int, n: int, packed: bool = False):
        """The next ``num_sequences * n`` stream bits as a ``(num_sequences,
        n)`` uint8 matrix (row ``i`` is the ``i``-th consecutive sequence).

        This is the shape the engine's batch path and the campaign runner
        consume directly, without intermediate :class:`BitSequence` copies.

        With ``packed=True`` the matrix is returned as a
        :class:`~repro.engine.packed.PackedMatrix` (64 bits per word, the
        uint8 source retained) ready for the engine's packed kernels — the
        emitted *stream* is identical either way, only the container
        changes, so seeded runs stay reproducible across containers.
        """
        if num_sequences < 0:
            raise ValueError("num_sequences must be non-negative")
        matrix = self.generate_block(num_sequences * n).reshape(num_sequences, n)
        if packed:
            # Imported here: the source layer stays importable without
            # pulling in the engine package for plain matrix generation.
            from repro.engine.packed import pack_matrix

            return pack_matrix(matrix, keep_source=True)
        return matrix

    # ---------------------------------------------------------- bit-serial API
    def next_bit(self) -> int:
        """Produce the next output bit (0 or 1).

        Compatibility shim over the block interface: serves bits from an
        internal buffer refilled :attr:`block_bits` at a time by
        :meth:`_generate_block`.
        """
        buffer = self._buffer
        if buffer is None or self._cursor >= buffer.size:
            size = max(1, int(self.block_bits))
            buffer = np.ascontiguousarray(self._generate_block(size), dtype=np.uint8)
            self._buffer = buffer
            self._cursor = 0
        bit = int(buffer[self._cursor])
        self._cursor += 1
        return bit

    def generate(self, n: int) -> BitSequence:
        """Produce ``n`` bits as a :class:`~repro.nist.common.BitSequence`.

        Delegates to :meth:`generate_block`; the historical per-bit bulk
        loop (``n`` successive ``next_bit()`` calls into a pre-allocated
        array) is deprecated — it produced the same stream but at per-bit
        Python cost.  Use :meth:`generate_block` directly when a raw numpy
        array is enough.
        """
        return BitSequence(self.generate_block(n))

    def bit_stream(self, n: Optional[int] = None) -> Iterator[int]:
        """Yield bits one at a time; endless when ``n`` is None."""
        if n is None:
            while True:
                yield self.next_bit()
        else:
            for _ in range(n):
                yield self.next_bit()

    # ------------------------------------------------------------------ state
    def _drop_buffer(self) -> None:
        """Discard bits buffered by the ``next_bit`` shim.

        Called when source parameters change mid-stream (e.g. an injection
        lock engages) so already-buffered bits generated under the old
        parameters are not served afterwards.
        """
        self._buffer = None
        self._cursor = 0

    def reset(self) -> None:
        """Reset any internal state.  Subclass overrides must call super()."""
        self._drop_buffer()

    @property
    def name(self) -> str:
        """Human-readable source name (defaults to the class name)."""
        return type(self).__name__


class SeededSource(EntropySource):
    """Entropy source backed by a seeded pseudo-random generator.

    This is the common base of all behavioural models in this package: the
    underlying physical randomness (thermal noise, jitter) is emulated with a
    numpy ``Generator`` so that experiments are reproducible.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def seed(self) -> Optional[int]:
        """The seed this source was constructed with (None = OS entropy)."""
        return self._seed

    def reset(self) -> None:
        """Restart the underlying pseudo-random stream from the seed."""
        super().reset()
        self._rng = np.random.default_rng(self._seed)

    def _uniform(self) -> float:
        """One uniform draw in [0, 1) from the backing generator."""
        return float(self._rng.random())
