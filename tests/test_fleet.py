"""Tests of the fleet monitoring subsystem (registry, scheduler, report)."""

import numpy as np
import pytest

from repro.core.monitor import HealthState
from repro.fleet import (
    DeviceRegistry,
    FleetMix,
    FleetReport,
    FleetScheduler,
    FleetVerdict,
)
from repro.fleet.report import SUMMARY_COLUMNS, percentile


MIX = FleetMix.healthy_with_threats(
    0.9, threats=("wire-cut", "biased-0.70", "freq-injection")
)


def small_fleet(num_devices=40, seed=11, **kwargs):
    registry = DeviceRegistry("n128_light", alpha=0.01, **kwargs)
    registry.populate(num_devices, MIX, seed=seed)
    return registry


class TestFleetMix:
    def test_counts_are_exact(self):
        counts = FleetMix.healthy_with_threats(0.95).counts(1000)
        assert sum(counts.values()) == 1000
        assert counts["healthy-ideal"] == 950

    def test_counts_cover_every_scenario_when_room(self):
        counts = MIX.counts(40)
        assert sum(counts.values()) == 40
        assert counts["healthy-ideal"] == 36

    def test_parse_round_trips(self):
        mix = FleetMix.parse("healthy-ideal:0.8, wire-cut:0.1, biased-0.60:0.1")
        assert mix.labels == ("healthy-ideal", "wire-cut", "biased-0.60")
        assert FleetMix.from_dict(mix.to_dict()) == mix

    def test_parse_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            FleetMix.parse("no-weight")
        with pytest.raises(ValueError):
            FleetMix.parse("label:not-a-number")

    def test_rejects_non_positive_weights_and_duplicates(self):
        with pytest.raises(ValueError):
            FleetMix((("healthy-ideal", 0.0),))
        with pytest.raises(ValueError):
            FleetMix((("a", 0.5), ("a", 0.5)))

    def test_healthy_fraction_validated(self):
        with pytest.raises(ValueError):
            FleetMix.healthy_with_threats(1.0)


class TestDeviceRegistry:
    def test_populate_is_deterministic(self):
        first = small_fleet(seed=3)
        second = small_fleet(seed=3)
        assert first.device_ids() == second.device_ids()
        assert [d.scenario for d in first] == [d.scenario for d in second]
        assert [d.seed for d in first] == [d.seed for d in second]

    def test_different_seeds_change_placement(self):
        first = small_fleet(seed=3)
        second = small_fleet(seed=4)
        assert [d.scenario for d in first] != [d.scenario for d in second]

    def test_unknown_scenario_label_fails_fast(self):
        registry = DeviceRegistry("n128_light")
        with pytest.raises(ValueError):
            registry.populate(10, FleetMix((("bogus-threat", 1.0),)), seed=0)
        assert len(registry) == 0  # nothing half-registered

    def test_duplicate_device_id_rejected(self):
        registry = DeviceRegistry("n128_light")
        registry.register("edge-1")
        with pytest.raises(ValueError):
            registry.register("edge-1")

    def test_external_device_has_no_source(self):
        registry = DeviceRegistry("n128_light")
        device = registry.register("edge-1")
        assert not device.simulated
        assert device.category == "external"
        assert registry.simulated_devices() == []

    def test_health_counts_start_healthy(self):
        registry = small_fleet()
        counts = registry.health_counts()
        assert counts == {"healthy": 40, "suspect": 0, "failed": 0}

    def test_snapshot_is_json_ready(self):
        import json

        registry = small_fleet(num_devices=5)
        snapshot = next(iter(registry)).snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["state"] == "healthy"


class TestFleetScheduler:
    def test_round_advances_every_simulated_device(self):
        registry = small_fleet()
        scheduler = FleetScheduler(registry)
        fleet_round = scheduler.run_round()
        assert all(d.monitor.sequences_monitored == 1 for d in registry)
        assert sum(fleet_round.health.values()) == len(registry)

    def test_threats_get_detected_and_health_degrades(self):
        registry = small_fleet()
        scheduler = FleetScheduler(registry)
        scheduler.run(4)
        for device in registry:
            if device.scenario == "wire-cut":
                assert device.state is HealthState.FAILED
                assert device.monitor.detection_latency_sequences() == 2
                assert 1 in (device.monitor.first_failing_tests or ())

    def test_run_is_reproducible(self):
        reports = []
        for _ in range(2):
            registry = small_fleet(seed=9)
            reports.append(FleetScheduler(registry).run(3))
        # wall-clock fields differ run to run; the statistical content must not
        a, b = reports
        assert [s.to_dict() for s in a.scenarios] == [s.to_dict() for s in b.scenarios]
        assert [r.health for r in a.rounds] == [r.health for r in b.rounds]

    def test_verdicts_match_health_trajectory_of_per_device_monitoring(self):
        """The multiplexed round folds the same verdict stream into each
        device as dedicated per-device engine monitoring would."""
        registry = small_fleet(num_devices=10, seed=21)
        scheduler = FleetScheduler(registry)
        # Clone the fleet and advance each clone device independently.
        clone = small_fleet(num_devices=10, seed=21)
        rounds = 3
        scheduler.run(rounds)
        for device in clone.simulated_devices():
            matrix = device.source.generate_matrix(rounds, clone.n)
            for verdict in FleetScheduler(clone).evaluate_matrix(matrix):
                device.monitor.observe(verdict)
        for multiplexed, independent in zip(registry, clone):
            assert multiplexed.device_id == independent.device_id
            assert multiplexed.state is independent.state
            assert (
                multiplexed.monitor.failure_rate()
                == independent.monitor.failure_rate()
            )

    def test_containers_agree_on_verdicts(self):
        """A uint8 matrix, a prepacked matrix and one that kept its source
        all evaluate to identical verdicts."""
        from repro.engine.packed import pack_matrix
        from repro.trng.ideal import IdealSource

        matrix = IdealSource(seed=21).generate_matrix(8, 128)
        verdicts = []
        for container in (matrix, pack_matrix(matrix), pack_matrix(matrix, keep_source=True)):
            with FleetScheduler(small_fleet(num_devices=8, seed=6)) as scheduler:
                verdicts.append(scheduler.evaluate_matrix(container))
        assert all(v == verdicts[0] for v in verdicts[1:])

    def test_evaluate_matrix_verdict_reduction(self):
        registry = DeviceRegistry("n128_light")
        scheduler = FleetScheduler(registry)
        dead = np.zeros((1, 128), dtype=np.uint8)
        (verdict,) = scheduler.evaluate_matrix(dead)
        assert isinstance(verdict, FleetVerdict)
        assert not verdict.passed
        assert verdict.failing_tests == (1, 2, 3, 4, 13)

    def test_ingest_requires_whole_sequences(self):
        registry = small_fleet(num_devices=4)
        scheduler = FleetScheduler(registry)
        device_id = registry.device_ids()[0]
        with pytest.raises(ValueError):
            scheduler.ingest(device_id, np.zeros(5, dtype=np.uint8))
        events = scheduler.ingest(device_id, np.zeros(256, dtype=np.uint8))
        assert len(events) == 2
        assert registry.get(device_id).state is HealthState.FAILED

    def test_empty_fleet_round_is_an_error(self):
        with pytest.raises(ValueError):
            FleetScheduler(DeviceRegistry("n128_light")).run_round()


class TestFleetReport:
    @pytest.fixture(scope="class")
    def report(self):
        registry = small_fleet(seed=5)
        return FleetScheduler(registry).run(4)

    def test_health_trajectory_spans_rounds(self, report):
        trajectory = report.health_trajectory()
        assert len(trajectory) == 4
        assert all(sum(mix.values()) == 40 for mix in trajectory)
        assert report.final_health() == trajectory[-1]

    def test_scenario_stats_cover_the_mix(self, report):
        assert {s.scenario for s in report.scenarios} == set(MIX.labels)
        assert sum(s.devices for s in report.scenarios) == 40
        wire_cut = next(s for s in report.scenarios if s.scenario == "wire-cut")
        assert wire_cut.detection_probability == 1.0
        assert wire_cut.latency_percentiles[50] == 2

    def test_false_alarm_rate_is_low_for_healthy_fleet(self, report):
        rate = report.false_alarm_rate()
        assert rate is not None
        assert rate < 0.3  # 5 tests at alpha=0.01: per-sequence ~5%

    def test_json_round_trip(self, report):
        assert FleetReport.from_json(report.to_json()) == report

    def test_csv_columns_stable(self, report):
        header = report.to_csv().splitlines()[0]
        assert header == ",".join(SUMMARY_COLUMNS)

    def test_save_outputs_reload(self, report, tmp_path):
        import csv as csv_module
        import json

        json_path = tmp_path / "fleet.json"
        csv_path = tmp_path / "fleet.csv"
        report.save_json(json_path)
        report.save_csv(csv_path)
        assert FleetReport.from_json(json_path.read_text()) == report
        with open(csv_path) as handle:
            rows = list(csv_module.DictReader(handle))
        assert len(rows) == len(report.scenarios)
        assert json.loads(json_path.read_text())["config"]["num_devices"] == 40

    def test_format_table_lists_every_scenario(self, report):
        table = report.format_table()
        for label in MIX.labels:
            assert label in table

    def test_devices_per_second_positive(self, report):
        assert report.devices_per_second() > 0


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 99) == 10
        assert percentile(values, 0) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestStreamingScheduler:
    """Streaming mode: rolled fleet rounds and arbitrary-chunk ingest."""

    def _health_trajectory(self, scheduler, rounds):
        trajectory = []
        for _ in range(rounds):
            fleet_round = scheduler.run_round()
            trajectory.append(
                (fleet_round.failing_sequences, dict(fleet_round.health))
            )
        return trajectory

    def test_streaming_rounds_match_matrix_rounds(self):
        matrix_mode = FleetScheduler(small_fleet(num_devices=24, seed=7))
        streaming = FleetScheduler(
            small_fleet(num_devices=24, seed=7), streaming=True
        )
        left = self._health_trajectory(matrix_mode, 4)
        right = self._health_trajectory(streaming, 4)
        assert left == right
        assert any(failing > 0 for failing, _ in left)  # threats really fire
        assert streaming.report().streaming is True
        assert matrix_mode.report().streaming is False

    def test_older_report_keys_ignored(self):
        """Reports saved by older versions carry a compute backend and
        per-test execution paths; both load and are dropped on re-export."""
        scheduler = FleetScheduler(small_fleet(num_devices=8, seed=5))
        scheduler.run_round()
        report = scheduler.report()
        data = report.to_dict()
        data["config"]["backend"] = "uint8"
        data["execution_paths"] = {"nist.frequency": "inline", "nist.rank": "pooled"}
        assert FleetReport.from_dict(data).to_dict() == report.to_dict()

    def test_streaming_report_flag_survives_serialization(self):
        scheduler = FleetScheduler(small_fleet(num_devices=8, seed=5), streaming=True)
        scheduler.run_round()
        report = scheduler.report()
        assert FleetReport.from_dict(report.to_dict()).streaming is True

    def test_ingest_accepts_arbitrary_chunks(self):
        registry = small_fleet(num_devices=8, seed=21)
        device_id = registry.device_ids()[0]
        scheduler = FleetScheduler(registry, streaming=True)
        n = registry.n
        rng = np.random.default_rng(99)
        bits = rng.integers(0, 2, size=2 * n + 37, dtype=np.uint8)
        events = []
        offset = 0
        for size in (63, 64, 65, 1, n, 2 * n):
            take = min(size, bits.size - offset)
            if take == 0:
                break
            events.extend(scheduler.ingest(device_id, bits[offset : offset + take]))
            offset += take
        # Two full sequences were completed; 37 bits pend in the ring.
        assert len(events) == 2
        assert scheduler.pending_bits(device_id) == 37
        # The streamed verdicts equal the matrix-mode evaluation of the
        # same two sequences.
        reference = FleetScheduler(small_fleet(num_devices=8, seed=21))
        ref_events = reference.ingest(device_id, bits[: 2 * n])
        assert [e.report.failing_tests for e in events] == [
            e.report.failing_tests for e in ref_events
        ]
        assert [e.state for e in events] == [e.state for e in ref_events]

    def test_streaming_ingest_rejects_empty(self):
        registry = small_fleet(num_devices=4, seed=2)
        scheduler = FleetScheduler(registry, streaming=True)
        with pytest.raises(ValueError):
            scheduler.ingest(registry.device_ids()[0], np.zeros(0, dtype=np.uint8))

    def test_pending_bits_outside_streaming_mode(self):
        registry = small_fleet(num_devices=4, seed=3)
        scheduler = FleetScheduler(registry)
        device_id = registry.device_ids()[0]
        assert scheduler.pending_bits(device_id) == 0
        with pytest.raises(ValueError):
            scheduler.ingest(device_id, np.zeros(37, dtype=np.uint8))
        with pytest.raises(KeyError):
            scheduler.pending_bits("no-such-device")
