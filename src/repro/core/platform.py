"""The embedded HW/SW testing platform (Fig. 1 of the paper).

:class:`OnTheFlyPlatform` wires together the three actors of the paper's
testing environment:

* the TRNG (any :class:`repro.trng.EntropySource`),
* the unified hardware testing block, which observes every generated bit
  while the TRNG runs,
* the software platform (microcontroller model), which reads the hardware's
  counter values after each n-bit sequence and accepts or rejects the
  randomness hypothesis against precomputed critical values.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.configs import DesignPoint, get_design
from repro.core.results import PlatformReport
from repro.engine.context import BatchContext
from repro.engine.packed import PackedMatrix
from repro.hwtests.block import UnifiedTestingBlock
from repro.hwtests.parameters import SharingOptions
from repro.nist.common import BitsLike, to_bits
from repro.sw.routines import SoftwareVerifier
from repro.trng.source import EntropySource

__all__ = ["OnTheFlyPlatform"]


class OnTheFlyPlatform:
    """HW/SW co-designed on-the-fly randomness testing platform.

    Parameters
    ----------
    design:
        A :class:`~repro.core.configs.DesignPoint` or the name of one of the
        eight standard design points (e.g. ``"n65536_medium"``).
    alpha:
        Level of significance of the statistical tests (NIST recommends
        0.001–0.01).  Only the software depends on it.
    sharing:
        The resource-sharing tricks applied to the hardware block (all on by
        default; the ablation benchmark switches them off selectively).
    word_bits:
        Word width of the software platform (16 in the paper).
    """

    def __init__(
        self,
        design: "DesignPoint | str" = "n65536_high",
        alpha: float = 0.01,
        sharing: SharingOptions = SharingOptions(),
        word_bits: int = 16,
    ):
        if isinstance(design, str):
            design = get_design(design)
        self.design = design
        self.alpha = alpha
        self.sharing = sharing
        params = design.parameters
        self.hardware = UnifiedTestingBlock(
            params, tests=design.tests, sharing=sharing, bus_width=word_bits
        )
        self.software = SoftwareVerifier(
            params, tests=design.tests, alpha=alpha, word_bits=word_bits
        )

    # ------------------------------------------------------------------ info
    @property
    def n(self) -> int:
        """Sequence length of the configured design point."""
        return self.design.n

    @property
    def tests(self) -> Sequence[int]:
        """NIST test numbers implemented by this platform instance."""
        return self.design.tests

    def set_alpha(self, alpha: float) -> None:
        """Change the level of significance.

        Demonstrates the paper's flexibility argument: the hardware block is
        untouched; only the software's critical-value table is rebuilt.
        """
        self.alpha = alpha
        self.software = SoftwareVerifier(
            self.design.parameters,
            tests=self.design.tests,
            alpha=alpha,
            word_bits=self.software.processor.word_bits,
        )

    # ------------------------------------------------------------------ evaluation
    def evaluate_sequence(self, bits: BitsLike, accelerated: bool = True) -> PlatformReport:
        """Run one complete n-bit sequence through hardware and software.

        The default feeds the functional (vectorised) hardware model;
        ``accelerated=False`` selects the cycle-accurate bit-serial model
        for RTL-fidelity runs.  The final register contents — and therefore
        the verdicts — are identical (see
        ``UnifiedTestingBlock.accelerated_process_sequence``), only the
        simulation speed differs.
        """
        arr = to_bits(bits)
        if arr.size != self.n:
            raise ValueError(f"expected {self.n} bits, got {arr.size}")
        self.hardware.reset()
        if accelerated:
            self.hardware.accelerated_process_sequence(arr)
        else:
            self.hardware.process_sequence(arr)
        return self._verify()

    def evaluate_batch(self, sequences, accelerated: bool = True) -> List[PlatformReport]:
        """Evaluate a batch of complete n-bit sequences.

        This is the platform-side entry point of the engine's batch path:
        continuous monitoring hands over whole batches drawn from the source
        instead of one sequence at a time, and each sequence runs through the
        vectorised functional hardware model (``accelerated=True``, the
        default) rather than the bit-serial one.  The verdicts are identical
        either way; only the simulation speed differs.

        ``sequences`` may be any iterable of ``BitsLike`` sequences (one
        sequence included), the zero-copy fast path used by the monitor and
        campaign runner — a 2-D ``(num_sequences, n)`` uint8 matrix straight
        from :meth:`~repro.trng.source.EntropySource.generate_matrix` — a
        prepacked :class:`~repro.engine.packed.PackedMatrix` from
        ``generate_matrix(..., packed=True)``, or a prebuilt
        :class:`~repro.engine.context.BatchContext` (e.g. the preseeded
        trailing window of a streaming context), which is used as-is so
        statistics already rolled into it are never recomputed.

        The whole batch shares one
        :class:`~repro.engine.context.BatchContext`, so the hardware units'
        shared statistics are computed in single vectorised passes over the
        batch instead of once per sequence.
        """
        if isinstance(sequences, np.ndarray):
            # as_matrix validates shape (2-D) and 0/1 content.
            sequences = BatchContext(BatchContext.as_matrix(sequences))
        elif not isinstance(sequences, (BatchContext, PackedMatrix)):
            sequences = [to_bits(sequence) for sequence in sequences]
            for arr in sequences:
                if arr.size != self.n:
                    raise ValueError(f"expected {self.n} bits, got {arr.size}")
        batch = BatchContext.from_sequences(sequences)
        if batch.n != self.n and batch.num_sequences:
            raise ValueError(f"expected {self.n} bits, got {batch.n}")
        contexts = batch.contexts()
        if not accelerated:
            return [
                self.evaluate_sequence(context.bits, accelerated=False)
                for context in contexts
            ]
        from repro.hwtests.functional import fast_load_block_from_context

        reports = []
        for context in contexts:
            self.hardware.reset()
            fast_load_block_from_context(self.hardware, context)
            reports.append(self._verify())
        return reports

    def evaluate_source(self, source: EntropySource, accelerated: bool = True) -> PlatformReport:
        """Draw one n-bit sequence from ``source`` and evaluate it.

        The default pulls a whole n-bit block from the source
        (:meth:`~repro.trng.source.EntropySource.generate_block`) and feeds
        it to the vectorised functional hardware model.
        ``accelerated=False`` selects the RTL-fidelity path instead — the
        hardware observes the source one bit per clock cycle, exactly like
        the paper's deployment — at per-bit Python cost.  Both paths
        consume the same source stream and produce identical verdicts.
        """
        if accelerated:
            return self.evaluate_sequence(source.generate_block(self.n), accelerated=True)
        self.hardware.reset()
        for _ in range(self.n):
            self.hardware.process_bit(source.next_bit())
        self.hardware.finalize()
        return self._verify()

    def _verify(self) -> PlatformReport:
        """Software pass over the hardware's register file."""
        self.software.processor.reset_counts()
        verdicts = self.software.verify(self.hardware.register_file)
        violations = self.software.consistency_check(self.hardware.register_file)
        return PlatformReport(
            design_name=self.design.name,
            n=self.n,
            alpha=self.alpha,
            verdicts=verdicts,
            hardware_values=self.hardware.hardware_values(),
            instruction_counts=self.software.instruction_counts(),
            consistency_violations=violations,
        )

    def __repr__(self) -> str:
        return (
            f"OnTheFlyPlatform(design={self.design.name!r}, n={self.n}, "
            f"tests={tuple(self.tests)}, alpha={self.alpha})"
        )
