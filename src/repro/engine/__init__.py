"""Unified batch test engine with shared-statistic contexts.

The engine is the software embodiment of the paper's resource-sharing idea:
the hardware testing block derives common sub-statistics (bit counts, block
sums, pattern counters) once and shares them across the on-the-fly tests.
Here a :class:`BatchContext` computes those derived statistics once per
batch on the packed 64-bits-per-word kernels, a :class:`SequenceContext` is
one sequence's row view of a batch, the :class:`TestRegistry` puts the NIST,
FIPS and hardware-model tests behind one ``run(context) -> TestResult``
interface, and :func:`run_batch` executes any test selection over any
number of equal-length sequences in process — the cheap tests per sequence
on the shared statistics, the five heavyweight ones through the
batch-native kernels of :mod:`repro.engine.heavy`.

Quickstart::

    from repro.engine import run_batch
    from repro.trng import IdealSource

    sequences = [IdealSource(seed=i).generate(4096).bits for i in range(256)]
    reports = run_batch(sequences, tests=[1, 2, 3, 11, 12, 13])
    print(sum(report.passed() for report in reports), "of", len(reports))
"""

from repro.engine.batch import EngineReport, run_batch
from repro.engine.heavy import BatchFallback
from repro.engine.context import BatchContext, SequenceContext
from repro.engine.packed import PackedMatrix, pack_matrix, unpack_matrix
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    NIST_NUMBER_TO_ID,
    RegisteredTest,
    StatisticalTest,
    TestRegistry,
    build_default_registry,
)
from repro.engine.streaming import StreamingBatchContext, StreamingContext

__all__ = [
    "BatchContext",
    "BatchFallback",
    "DEFAULT_REGISTRY",
    "EngineReport",
    "NIST_NUMBER_TO_ID",
    "PackedMatrix",
    "RegisteredTest",
    "SequenceContext",
    "StatisticalTest",
    "StreamingBatchContext",
    "StreamingContext",
    "TestRegistry",
    "build_default_registry",
    "pack_matrix",
    "run_batch",
    "unpack_matrix",
]
