"""Tests of the benchmark's own arithmetic, on synthetic spans.

Run with ``python3 -m pytest perfbench``; nothing here imports the package
under test.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import (  # noqa: E402
    OpLog,
    Recorder,
    beyond,
    layer_totals,
    percentile,
    roots,
    self_times,
    tail_level,
)


def span(name, start, end, parent=-1, amount=0.0):
    return (name, float(start), float(end), parent, 0, amount)


# ------------------------------------------------------------ percentile rule
class TestTailLevel:
    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 99) == 99
        assert percentile([7.0], 99.9) == 7.0

    def test_samples_beyond_a_percentile(self):
        assert beyond(100, 90) == 10
        assert beyond(99, 90) == 9
        assert beyond(1000, 99) == 10
        assert beyond(20, 50) == 10

    @pytest.mark.parametrize(
        "count, level",
        [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
         (1000, 99.0), (9999, 99.0), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, count, level):
        assert tail_level(count) == level

    def test_rule_holds_for_every_count(self):
        for count in range(1, 2500):
            level = tail_level(count)
            if level is None:
                assert beyond(count, 50.0) < 10
                continue
            assert beyond(count, level) >= 10
            higher = [q for q in (50.0, 90.0, 99.0, 99.9) if q > level]
            assert all(beyond(count, q) < 10 for q in higher)


# ------------------------------------------------------------ self time
class TestSelfTime:
    def test_sequential_children(self):
        spans = [span("op", 0, 10), span("a", 1, 3, 0), span("b", 4, 8, 0)]
        assert self_times(spans) == [4.0, 2.0, 4.0]

    def test_overlapping_children_are_counted_once(self):
        # Two children overlap on [3, 5]: the parent is covered on [2, 7].
        spans = [span("op", 0, 10), span("a", 2, 5, 0), span("b", 3, 7, 0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_child_inside_child_is_not_subtracted_twice(self):
        spans = [span("op", 0, 10), span("a", 2, 8, 0), span("b", 3, 5, 1)]
        assert self_times(spans) == [4.0, 4.0, 2.0]

    def test_child_sticking_out_of_its_parent_is_clipped(self):
        spans = [span("op", 0, 10), span("a", 8, 12, 0)]
        assert self_times(spans)[0] == pytest.approx(8.0)

    def test_identical_children_cover_once(self):
        spans = [span("op", 0, 4), span("a", 1, 3, 0), span("a", 1, 3, 0)]
        assert self_times(spans)[0] == pytest.approx(2.0)

    def test_self_times_add_up_to_the_root(self):
        spans = [span("op", 0, 10), span("a", 1, 6, 0), span("b", 2, 3, 1),
                 span("c", 3, 4, 1), span("d", 7, 9, 0)]
        assert sum(self_times(spans)) == pytest.approx(10.0)

    def test_overlapping_siblings_sum_past_the_root(self):
        # Concurrent children each keep their own time, so the sum exceeds
        # the root by the overlap: coverage above 1 flags concurrency.
        spans = [span("op", 0, 10), span("b", 2, 3, 0), span("c", 2.5, 4, 0)]
        assert sum(self_times(spans)) == pytest.approx(10.5)

    def test_layer_totals_count_nested_same_layer_once(self):
        spans = [span("op", 0, 10), span("gen", 1, 5, 0), span("gen", 2, 4, 1)]
        table = layer_totals(spans)
        assert table["gen"]["calls"] == 1
        assert table["gen"]["busy"] == pytest.approx(4.0)
        assert table["gen"]["self"] == pytest.approx(4.0)

    def test_layer_totals_keep_selects_trees(self):
        spans = [span("op", 0, 4), span("a", 1, 2, 0, amount=5.0), span("other", 5, 9),
                 span("a", 6, 7, 2, amount=7.0)]
        top = roots(spans)
        assert top == [0, 0, 2, 2]
        table = layer_totals(spans, [spans[root][0] == "op" for root in top])
        assert table["a"] == {"calls": 1.0, "busy": 1.0, "self": 1.0, "amount": 5.0}
        assert "other" not in table

    def test_recorder_parents_and_threads(self):
        ticks = iter(range(100))
        recorder = Recorder(clock=lambda: float(next(ticks)))
        outer = recorder.begin("op")
        inner = recorder.begin("a")
        recorder.add("count", 3.0)
        recorder.end(inner, amount=2.0)
        recorder.end(outer)
        rows = recorder.export()
        assert [(row[0], row[3], row[5]) for row in rows] == [
            ("op", -1, 0.0), ("a", 0, 2.0), ("count", 1, 3.0)]
        assert sum(self_times(rows)) == pytest.approx(rows[0][2] - rows[0][1])


# ------------------------------------------------------------ failed operations
class TestFailedOperations:
    def test_failures_count_against_attempted(self):
        log = OpLog()
        for seconds in (0.1, 0.2, 0.3):
            log.ok(seconds)
        log.fail()
        assert (log.attempted, log.failed, log.completed) == (4, 1, 3)
        assert log.busy_s() == pytest.approx(0.6)

    def test_failure_misses_every_latency_limit(self):
        log = OpLog()
        log.ok(0.001)
        log.fail()
        log.fail()
        summary = log.summary()
        assert math.isinf(summary["p50_ms"])

    def test_mismatch_turns_a_completed_operation_into_a_failure(self):
        log = OpLog()
        log.ok(0.004)
        log.ok(0.002)
        log.mark_failed(0)
        log.mark_failed(0)
        assert (log.attempted, log.failed) == (2, 1)
        assert log.busy_s() == pytest.approx(0.002)
        assert math.isinf(percentile(log.latencies, 99.0))

    def test_extend_merges_logs(self):
        first, second = OpLog(), OpLog()
        first.ok(0.1)
        second.fail()
        first.extend(second)
        assert (first.attempted, first.failed, len(first.latencies)) == (2, 1, 2)


# ------------------------------------------------------------ the contract file
def test_benchmark_json_lists_what_run_reports():
    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
