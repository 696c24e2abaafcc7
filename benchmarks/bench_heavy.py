"""Heavy-test benchmark: batch-native kernels vs per-sequence scalar calls.

Before the batch-native kernels of :mod:`repro.engine.heavy`, the five
heavyweight NIST tests (rank, DFT, universal, linear complexity, random
excursions + variant) were the engine's scaling wall: each one re-ran its
scalar reference per sequence, paying per-call Python overhead on every
(test, sequence) pair.  The kernels evaluate the whole packed batch at once
(vectorised GF(2) rank, one 2-D FFT, argsort-based universal distances,
bit-sliced Berlekamp–Massey, bincount excursion histograms), in process.

This benchmark pins that trade: the batched path must run **>= 3x** faster
than calling the scalar ``repro.nist`` references sequence by sequence on a
fleet-scale batch of 2^20-bit sequences, with bit-identical P-values
asserted before any speedup counts.  The scalar baseline is timed on a
small row subset and extrapolated linearly (per-sequence work is
independent across rows), because timing the full batch one sequence at a
time would dominate the whole benchmark run.  Machine-readable results land
in ``benchmarks/results/BENCH_heavy.json`` through the shared
``bench_harness`` schema.  ``REPRO_BENCH_SMOKE=1`` shrinks the workload to
CI-smoke size; the floor stays pinned.
"""

import os
import time

from bench_harness import assert_floors, write_bench_json
from repro.engine.batch import run_batch
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.nist.dft import dft_test
from repro.nist.linear_complexity import linear_complexity_test
from repro.nist.random_excursions import random_excursions_test
from repro.nist.random_excursions_variant import random_excursions_variant_test
from repro.nist.rank import binary_matrix_rank_test
from repro.nist.universal import universal_test
from repro.trng.ideal import IdealSource

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Fleet-scale heavy workload: 256 sequences of 2^20 bits (the acceptance
#: bar), shrunk to 32 x 2^16 in smoke mode.
ROWS = 32 if SMOKE else 256
N = 65536 if SMOKE else 1 << 20
#: The five heavyweight tests (NIST numbers; 14 and 15 share the walk),
#: with their scalar references.
REFERENCES = {
    5: binary_matrix_rank_test,
    6: dft_test,
    9: universal_test,
    10: linear_complexity_test,
    14: random_excursions_test,
    15: random_excursions_variant_test,
}
HEAVY_TESTS = list(REFERENCES)
#: At the smoke length Maurer's default parameterisation (387,840 bits for
#: L = 6) is out of range, so the smoke run pins L explicitly; the full
#: 2^20-bit run uses the NIST-recommended defaults.
PARAMETERS = {9: {"block_length": 6}} if SMOKE else {}
#: Rows the scalar baseline is actually timed on before extrapolation.
SCALAR_ROWS = 4 if SMOKE else 8
MIN_HEAVY_SPEEDUP = 3.0
SEED = 20150309


def _p_values(reports):
    return [
        {test_id: result.p_values for test_id, result in report.results.items()}
        for report in reports
    ]


def _scalar_p_values(rows):
    """Per-sequence scalar references, in the engine's report layout."""
    return [
        {
            NIST_NUMBER_TO_ID[number]: reference(row, **PARAMETERS.get(number, {})).p_values
            for number, reference in REFERENCES.items()
        }
        for row in rows
    ]


def test_heavy_batched_vs_scalar_speedup(save_table):
    packed = IdealSource(seed=SEED).generate_matrix(ROWS, N, packed=True)
    subset = packed.unpack()[:SCALAR_ROWS]

    start = time.perf_counter()
    reports = run_batch(packed, tests=HEAVY_TESTS, parameters=PARAMETERS)
    batched_seconds = time.perf_counter() - start
    assert all(
        NIST_NUMBER_TO_ID[number] in report.results
        for report in reports
        for number in HEAVY_TESTS
    )

    # Parity gate: the batched kernels must reproduce the scalar references
    # bit for bit before any timing counts.
    start = time.perf_counter()
    scalar_subset = _scalar_p_values(subset)
    scalar_subset_seconds = time.perf_counter() - start
    assert _p_values(reports[:SCALAR_ROWS]) == scalar_subset
    # Rows are independent on the scalar path (one call per (test,
    # sequence) pair), so the full-batch cost extrapolates linearly.
    scalar_seconds = scalar_subset_seconds * (ROWS / SCALAR_ROWS)
    speedup = scalar_seconds / batched_seconds

    rows = [
        {
            "path": "per-sequence scalar references (extrapolated)",
            "batch": f"{ROWS} x {N}",
            "seconds": f"{scalar_seconds:.2f}",
            "speedup": "1.0x",
        },
        {
            "path": "batch-native kernels",
            "batch": f"{ROWS} x {N}",
            "seconds": f"{batched_seconds:.2f}",
            "speedup": f"{speedup:.1f}x",
        },
    ]
    save_table(
        "heavy_batched",
        f"Five heavyweight NIST tests, batch-native kernels vs scalar references"
        f"{' [smoke sizes]' if SMOKE else ''}",
        rows,
        ["path", "batch", "seconds", "speedup"],
    )
    write_bench_json(
        "heavy",
        smoke=SMOKE,
        workload={
            "rows": ROWS,
            "n": N,
            "tests": HEAVY_TESTS,
            "parameters": {str(k): v for k, v in PARAMETERS.items()},
            "scalar_rows_timed": SCALAR_ROWS,
        },
        timings_s={
            "batched_full_batch": batched_seconds,
            "scalar_subset": scalar_subset_seconds,
            "scalar_extrapolated": scalar_seconds,
        },
        speedups={"batched_vs_scalar_heavy": speedup},
        floors={"batched_vs_scalar_heavy": MIN_HEAVY_SPEEDUP},
        extra={
            "batched_sequences_per_s": ROWS / batched_seconds,
            "batched_bits_per_s": ROWS * N / batched_seconds,
        },
    )
    assert_floors(
        {"batched_vs_scalar_heavy": speedup},
        {"batched_vs_scalar_heavy": MIN_HEAVY_SPEEDUP},
    )
