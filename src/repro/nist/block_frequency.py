"""NIST test 2: Frequency Test within a Block.

Splits the sequence into ``N`` non-overlapping blocks of ``M`` bits and
checks whether the proportion of ones within each block is close to 1/2.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nist.common import (
    BatchDecision,
    BitsLike,
    TestResult,
    chunk,
    igamc,
    igamc_rows,
    to_bits,
)

__all__ = [
    "block_frequency_test",
    "block_frequency_test_from_context",
    "block_frequency_test_decide",
]


def _validate(n: int, block_length: int) -> None:
    if block_length <= 0:
        raise ValueError("block_length must be positive")
    if block_length > n:
        raise ValueError(f"block_length M={block_length} exceeds sequence length n={n}")


def _block_frequency_result(n: int, block_length: int, ones_per_block: np.ndarray) -> TestResult:
    """Decision math shared by the direct and context-aware entry points."""
    num_blocks = int(ones_per_block.size)
    proportions = ones_per_block / block_length
    chi_squared = 4.0 * block_length * float(np.sum((proportions - 0.5) ** 2))
    p_value = igamc(num_blocks / 2.0, chi_squared / 2.0)
    return TestResult(
        name="Frequency Test within a Block",
        statistic=chi_squared,
        p_value=p_value,
        details={
            "n": n,
            "block_length": block_length,
            "num_blocks": num_blocks,
            "ones_per_block": ones_per_block.tolist(),
            "discarded_bits": n - num_blocks * block_length,
        },
    )


def block_frequency_test(bits: BitsLike, block_length: int = 128) -> TestResult:
    """Run the frequency test within a block.

    Parameters
    ----------
    bits:
        The bit sequence under test.
    block_length:
        Block length ``M``.  The hardware designs of the paper constrain
        ``M`` to powers of two (so block boundaries can be read off the
        global bit counter); the reference implementation accepts any
        positive ``M`` not exceeding the sequence length.

    Returns
    -------
    TestResult
        The statistic is χ² = 4 M Σ (π_i − 1/2)²; ``details`` contains the
        per-block ones counts (the ε_i of Table II).
    """
    arr = to_bits(bits)
    n = arr.size
    _validate(n, block_length)
    blocks = chunk(arr, block_length)
    ones_per_block = np.array([int(b.sum()) for b in blocks], dtype=np.int64)
    return _block_frequency_result(n, block_length, ones_per_block)


def block_frequency_test_from_context(context, block_length: int = 128) -> TestResult:
    """Context-aware entry point: per-block ones counts come from the shared
    context's memoized block sums instead of a fresh block scan."""
    _validate(context.n, block_length)
    return _block_frequency_result(context.n, block_length, context.block_sums(block_length))


def block_frequency_test_decide(batch, block_length: int = 128) -> BatchDecision:
    """Batch entry point: :func:`_block_frequency_result`'s arithmetic over
    the block-sums rows of a whole
    :class:`~repro.engine.context.BatchContext` (each row's χ² sum runs
    over one contiguous row, the order the scalar 1-D sum uses)."""
    n = batch.n
    _validate(n, block_length)
    sums = batch.block_sums(block_length)
    proportions = sums / block_length
    chi_squared = 4.0 * block_length * np.sum((proportions - 0.5) ** 2, axis=1)
    errors: Dict[int, str] = {}
    p_values = igamc_rows(sums.shape[1] / 2.0, chi_squared / 2.0, errors)
    return BatchDecision(
        p_values[:, None],
        chi_squared,
        (sums,),
        lambda row_sums: _block_frequency_result(n, block_length, row_sums),
        errors,
    )
