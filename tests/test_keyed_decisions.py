"""Parity of the array batch decisions with the per-row and scalar routes.

Frequency, block frequency, runs, longest run, serial, approximate entropy
and cumulative sums decide over whole arrays of integer statistics (their
batch runners return a columnar ``BatchDecision``).  Every test here checks
the same three-way identity, field for field (name, statistic, P-values,
details):

* ``run_batch`` (the array decision, or the scalar runner for a one-row
  batch, read through its lazy report views),
* the per-row runner, ``RegisteredTest.run`` on ``batch.context(i)``,
* the scalar ``repro.nist.*`` oracle on the row's bits,

and that a rejected input gives the same error string on all three routes.
The property tests also compare the raw ``p_values``/``statistic`` arrays.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DEFAULT_REGISTRY, run_batch
from repro.engine.context import BatchContext
from repro.engine.registry import RegisteredTest
from repro.nist.common import BatchDecision
from repro.nist.approximate_entropy import (
    approximate_entropy_test,
    approximate_entropy_test_decide,
)
from repro.nist.block_frequency import block_frequency_test, block_frequency_test_decide
from repro.nist.cusum import (
    cumulative_sums_test,
    cumulative_sums_test_decide,
    random_walk_extremes,
)
from repro.nist.frequency import frequency_test, frequency_test_decide
from repro.nist.longest_run import longest_run_test, longest_run_test_decide
from repro.nist.runs import runs_test, runs_test_decide
from repro.nist.serial import serial_test, serial_test_decide

#: The seven keyed tests and their scalar oracles.
ORACLES = {
    "nist.frequency": frequency_test,
    "nist.block_frequency": block_frequency_test,
    "nist.runs": runs_test,
    "nist.longest_run": longest_run_test,
    "nist.serial": serial_test,
    "nist.approximate_entropy": approximate_entropy_test,
    "nist.cumulative_sums": cumulative_sums_test,
}
KEYED = tuple(ORACLES)
#: Their array decisions, called directly: ``run_batch`` sends one-row
#: batches to the scalar runner instead, so only these reach the arrays'
#: one-row case.
DECIDERS = {
    "nist.frequency": frequency_test_decide,
    "nist.block_frequency": block_frequency_test_decide,
    "nist.runs": runs_test_decide,
    "nist.longest_run": longest_run_test_decide,
    "nist.serial": serial_test_decide,
    "nist.approximate_entropy": approximate_entropy_test_decide,
    "nist.cumulative_sums": cumulative_sums_test_decide,
}

#: (test, parameters) pairs: every test at its defaults plus non-default
#: block lengths, pattern lengths and cusum modes.
CASES = [(test_id, {}) for test_id in KEYED] + [
    ("nist.block_frequency", {"block_length": 16}),
    ("nist.block_frequency", {"block_length": 50}),
    ("nist.longest_run", {"block_length": 8}),
    ("nist.serial", {"m": 2}),
    ("nist.serial", {"m": 5}),
    ("nist.approximate_entropy", {"m": 1}),
    ("nist.approximate_entropy", {"m": 5}),
    ("nist.cumulative_sums", {"mode": 1}),
]
CASE_IDS = [f"{test_id}-{params}" for test_id, params in CASES]


def _outcome(call):
    """A result, or ``("error", message)`` for a rejected input."""
    try:
        return call()
    except ValueError as exc:
        return ("error", str(exc))


def _routes(matrix, test_id, params):
    """Per-row outcomes of the batched, per-row and oracle routes, plus the
    batch's columnar decision (None when the whole batch was rejected)."""
    reports = run_batch(matrix, tests=[test_id], parameters={test_id: params})
    batched = [
        report.results[test_id] if test_id in report.results
        else ("error", report.errors[test_id])
        for report in reports
    ]
    batch = BatchContext(matrix)
    test = DEFAULT_REGISTRY.resolve(test_id)
    per_row = [
        _outcome(lambda row=row: test.run(batch.context(row), **params))
        for row in range(matrix.shape[0])
    ]
    oracle = [
        _outcome(lambda bits=bits: ORACLES[test_id](bits, **params)) for bits in matrix
    ]
    return batched, per_row, oracle, reports.decisions.get(test_id)


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_parity(matrix, test_id, params):
    batched, per_row, oracle, decision = _routes(matrix, test_id, params)
    assert len(batched) == len(per_row) == len(oracle) == matrix.shape[0]
    for row, (got, row_result, expected) in enumerate(zip(batched, per_row, oracle)):
        # Dataclass equality: name, statistic, p_value, p_values and the
        # whole details dict, compared with == (bit for bit).
        assert got == expected, f"{test_id} {params} row {row}: batch != oracle"
        assert row_result == expected, f"{test_id} {params} row {row}: per-row != oracle"
        if not isinstance(expected, tuple):
            # The arrays verdicts are read from, not just the rebuilt views.
            assert decision.p_values[row].tolist() == expected.p_values, (test_id, params, row)
            assert _same_float(float(decision.statistic[row]), expected.statistic)
    return batched


def _matrix(rows, n, seed, p_one=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, n)) < p_one).astype(np.uint8)


def _too_short(test_id, params):
    """The longest sequence length the test rejects (None: only n = 0)."""
    if test_id in ("nist.block_frequency", "nist.longest_run"):
        return params.get("block_length", 128) - 1
    if test_id == "nist.serial":
        return (1 << params.get("m", 4)) - 1
    if test_id == "nist.approximate_entropy":
        return params.get("m", 3) + 1
    return None


TOO_SHORT = [(t, p, _too_short(t, p)) for t, p in CASES if _too_short(t, p) is not None]


@pytest.mark.parametrize(
    "test_id,params,n", TOO_SHORT, ids=[f"{t}-{p}-n{n}" for t, p, n in TOO_SHORT]
)
def test_too_short_rejected_alike(test_id, params, n):
    batched = _assert_parity(_matrix(4, n, seed=5), test_id, params)
    assert all(outcome[0] == "error" for outcome in batched)


@pytest.mark.parametrize("test_id,params", CASES, ids=CASE_IDS)
class TestParity:
    def test_random_rows(self, test_id, params):
        _assert_parity(_matrix(96, 256, seed=1), test_id, params)

    def test_biased_rows_repeat_keys(self, test_id, params):
        # Heavily biased short rows: few distinct statistics, many shares.
        _assert_parity(_matrix(128, 128, seed=2, p_one=0.8), test_id, params)

    def test_all_identical_rows(self, test_id, params):
        matrix = np.tile(_matrix(1, 256, seed=3), (16, 1))
        results = _assert_parity(matrix, test_id, params)
        assert all(result == results[0] for result in results)

    def test_short_rows_leave_pattern_counts_empty(self, test_id, params):
        # Fewer windows than patterns: zero counts, whose terms the array
        # sums must skip exactly as the scalar sums do.
        _assert_parity(_matrix(64, 20, seed=8), test_id, params)

    def test_one_row(self, test_id, params):
        _assert_parity(_matrix(1, 256, seed=4), test_id, params)

    def test_empty_sequences_rejected_alike(self, test_id, params):
        batched = _assert_parity(np.zeros((3, 0), dtype=np.uint8), test_id, params)
        assert all(outcome[0] == "error" for outcome in batched)


def _keys(test_id, matrix):
    """The integer key the batch runner groups rows by, per row."""
    batch = BatchContext(matrix)
    if test_id == "nist.frequency":
        return [(int(v),) for v in batch.ones()]
    if test_id == "nist.runs":
        return list(zip(batch.ones().tolist(), batch.num_runs().tolist()))
    if test_id == "nist.block_frequency":
        return [tuple(row) for row in batch.block_sums(128).tolist()]
    if test_id == "nist.longest_run":
        runs = batch.block_longest_one_runs(8)
        return [tuple(np.bincount(np.clip(row - 1, 0, 3), minlength=4)) for row in runs]
    if test_id == "nist.serial":
        return [tuple(row) for row in batch.pattern_counts(4).tolist()]
    if test_id == "nist.approximate_entropy":
        return [tuple(row) for row in batch.pattern_counts(4).tolist()]
    return [random_walk_extremes(bits) for bits in matrix]


@pytest.mark.parametrize("test_id", KEYED)
def test_shared_keys_with_different_bits(test_id):
    """Rows with equal keys but different bits get equal results, and rows
    with different keys never do (the key is the complete input)."""
    base = _matrix(32, 256, seed=6, p_one=0.6)
    # A cyclic rotation keeps the ones count and the cyclic pattern counts;
    # reversing a row keeps the ones and run counts and the longest-run
    # histogram; reversing each 128-bit half keeps the block sums too.
    # Exact duplicates repeat every key (cusum's shared triples from
    # different bits are built by hand below).
    rotated = np.roll(base, 37, axis=1)
    reversed_rows = base[:, ::-1]
    reversed_halves = np.concatenate([base[:, 127::-1], base[:, :127:-1]], axis=1)
    matrix = np.concatenate([base, rotated, reversed_rows, reversed_halves, base[:8]])
    results = _assert_parity(matrix, test_id, {})
    keys = _keys(test_id, matrix)
    by_key = {}
    for row, key in enumerate(keys):
        by_key.setdefault(key, []).append(row)
    firsts = [results[rows[0]] for rows in by_key.values()]
    assert all(a != b for i, a in enumerate(firsts) for b in firsts[i + 1:])
    shared_different_bits = 0
    for rows in by_key.values():
        assert all(results[row] == results[rows[0]] for row in rows)
        if any(not np.array_equal(matrix[row], matrix[rows[0]]) for row in rows):
            shared_different_bits += 1
    if test_id != "nist.cumulative_sums":
        assert shared_different_bits > 0


@pytest.mark.parametrize("mode", [0, 1])
def test_cusum_equal_z_different_extremes(mode):
    """Rows keyed by the whole (S_max, S_min, S_final) triple: equal triples
    from different bits get equal results, while an equal excursion z from a
    different triple does not (the details carry all three values)."""
    matrix = np.array([
        [1, 0, 1, 1, 0, 1, 0, 0],  # walk 1,0,1,2,1,2,1,0: (2, 0, 0)
        [0, 1, 0, 0, 1, 0, 1, 1],  # walk -1,0,-1,-2,-1,-2,-1,0: (0, -2, 0)
        [1, 1, 0, 0, 1, 1, 0, 0],  # walk 1,2,1,0,1,2,1,0: (2, 0, 0)
    ], dtype=np.uint8)
    assert [random_walk_extremes(bits) for bits in matrix] == [
        (2, 0, 0), (0, -2, 0), (2, 0, 0)
    ]
    results = _assert_parity(matrix, "nist.cumulative_sums", {"mode": mode})
    assert results[0].statistic == results[1].statistic == 2.0
    assert results[0].details != results[1].details
    assert results[0] == results[2] and results[0] != results[1]


def test_one_batch_call_per_test_and_no_row_calls(monkeypatch):
    calls = {"run": 0, "run_batch": []}
    row_run = RegisteredTest.run
    batch_run = RegisteredTest.run_batch

    def counting_run(self, context, **params):
        calls["run"] += 1
        return row_run(self, context, **params)

    def counting_run_batch(self, batch, **params):
        calls["run_batch"].append(self.id)
        return batch_run(self, batch, **params)

    monkeypatch.setattr(RegisteredTest, "run", counting_run)
    monkeypatch.setattr(RegisteredTest, "run_batch", counting_run_batch)
    reports = run_batch(_matrix(64, 128, seed=7), tests=list(KEYED))
    assert calls["run"] == 0
    assert calls["run_batch"] == list(KEYED)
    assert all(set(report.results) == set(KEYED) for report in reports)


@settings(deadline=None, max_examples=25)
@given(
    rows=st.integers(min_value=1, max_value=64),
    n=st.sampled_from([128, 160, 256]),
    p_one=st.sampled_from([0.5, 0.7, 0.95]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_random_matrices(rows, n, p_one, seed):
    matrix = _matrix(rows, n, seed, p_one)
    for test_id in KEYED:
        _assert_parity(matrix, test_id, {})


def _row_kinds(draw_kinds, rows, n, seed):
    """A matrix whose rows are random at a bias, or degenerate."""
    rng = np.random.default_rng(seed)
    matrix = np.empty((rows, n), dtype=np.uint8)
    for row, kind in enumerate(draw_kinds):
        if kind == "zeros":
            matrix[row] = 0
        elif kind == "ones":
            matrix[row] = 1
        elif kind == "alternating":
            matrix[row] = np.arange(n) % 2
        else:
            matrix[row] = rng.random(n) < kind
    return matrix


ROW_KINDS = st.sampled_from([0.5, 0.5, 0.6, 0.8, 0.95, "zeros", "ones", "alternating"])


@settings(deadline=None, max_examples=60)
@given(
    case=st.sampled_from(CASES),
    n=st.sampled_from([4, 15, 100, 128, 160, 256]),
    kinds=st.lists(ROW_KINDS, min_size=1, max_size=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_array_decisions(case, n, kinds, seed):
    """The raw arrays and the report views equal the scalar oracle, row by
    row, on random, biased, degenerate and too-short rows."""
    test_id, params = case
    matrix = _row_kinds(kinds, len(kinds), n, seed)
    _assert_parity(matrix, test_id, params)
    oracle = [_outcome(lambda bits=bits: ORACLES[test_id](bits, **params)) for bits in matrix]
    decision = _outcome(lambda: DECIDERS[test_id](BatchContext(matrix), **params))
    if isinstance(decision, tuple):
        # Parameters or length rejected for the whole batch: every row's
        # oracle rejects it with the same message.
        assert all(expected == decision for expected in oracle)
        return
    assert isinstance(decision, BatchDecision)
    width = 2 if test_id == "nist.serial" else 1
    assert decision.p_values.dtype == np.float64
    assert decision.p_values.shape == (len(kinds), width)
    assert decision.statistic.shape == (len(kinds),)
    for row, expected in enumerate(oracle):
        if isinstance(expected, tuple):
            # A row the oracle rejects alone is rejected alone.
            assert decision.errors.get(row) == expected[1], (test_id, params, row)
            continue
        assert row not in decision.errors
        assert decision.p_values[row].tolist() == expected.p_values, (test_id, params, row)
        assert _same_float(float(decision.statistic[row]), expected.statistic)
        assert decision.result(row) == expected


@pytest.mark.parametrize("tests", [list(KEYED), ["nist.rank", "fips.monobit"]])
def test_report_views_do_not_pin_the_batch(tests):
    """The views keep result arrays and integer key rows: the batch context
    and its bit matrices are collectable while the reports are alive."""
    matrix = _matrix(8, 1024, seed=9)
    batch = BatchContext(matrix)
    refs = [weakref.ref(batch), weakref.ref(matrix), weakref.ref(batch.packed().words)]
    reports = run_batch(batch, tests=tests)
    expected = [dict(report.results) for report in reports]
    del batch, matrix
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert [dict(report.results) for report in reports] == expected
