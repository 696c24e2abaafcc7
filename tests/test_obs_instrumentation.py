"""Every instrumented hot layer moves its metrics and spans when exercised.

Delta-based: the metrics live in the process-wide registry and other tests
also move them, so each assertion compares a before/after pair around one
workload instead of absolute values.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.campaign import CampaignConfig, run_campaign
from repro.engine import run_batch
from repro.engine.context import BatchContext
from repro.engine.streaming import StreamingBatchContext
from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler
from repro.trng import IdealSource


def metric(name):
    found = obs.registry().get(name)
    assert found is not None, f"metric {name} not registered"
    return found


@pytest.fixture(scope="module")
def sequences():
    return np.stack(
        [IdealSource(seed=900 + i).generate(2048).bits for i in range(4)]
    )


def small_fleet(num_devices=8):
    registry = DeviceRegistry("n128_light", alpha=0.01)
    registry.populate(
        num_devices, FleetMix.parse("healthy-ideal:0.75,stuck-at-1:0.25"), seed=7
    )
    return FleetScheduler(registry)


class TestBatchInstrumentation:
    def test_bits_and_paths_accounted(self, sequences):
        bits = metric("repro_engine_bits_evaluated_total")
        totals = metric("repro_engine_tests_total")
        seconds = metric("repro_engine_test_seconds")

        def path_sum():
            return sum(
                totals.value(path=path) for path in ("batched", "inline")
            )

        bits_before = bits.value()
        paths_before = path_sum()
        freq_before = seconds.count(test="nist.frequency")
        run_batch(sequences, tests=["nist.frequency", "nist.runs"])
        assert bits.value() - bits_before == sequences.size
        # Two tests over four sequences: eight per-sequence evaluations,
        # whatever path each test took.
        assert path_sum() - paths_before == 8
        assert seconds.count(test="nist.frequency") - freq_before == 1

    def test_trace_covers_pack_dispatch_decision(self, sequences):
        obs.clear_traces()
        run_batch(sequences, tests=["nist.frequency"])
        roots = [root for root in obs.TRACER.traces() if root.name == "run_batch"]
        assert roots, "run_batch recorded no root span"
        stages = roots[-1].stage_names()
        for stage in ("run_batch", "pack", "dispatch", "decision"):
            assert stage in stages
        obs.clear_traces()

    def test_disabled_batch_still_computes(self, sequences):
        bits = metric("repro_engine_bits_evaluated_total")
        before = bits.value()
        with obs.disabled():
            reports = run_batch(sequences, tests=["nist.frequency"])
        assert len(reports) == len(sequences)
        assert bits.value() == before


class TestKernelInstrumentation:
    def test_packed_kernel_dispatches_counted(self, sequences):
        calls = metric("repro_packed_kernel_invocations_total")
        before = calls.value(kernel="ones_count")
        ctx = BatchContext(sequences)
        ctx.ones()
        assert calls.value(kernel="ones_count") - before == 1
        # Cached on the context: a second read is not a second dispatch.
        ctx.ones()
        assert calls.value(kernel="ones_count") - before == 1

    def test_uint8_backend_does_not_touch_kernel_counters(self, sequences):
        # The uint8 (byte-per-bit) route survives only where the input has
        # no packed kernel — empty sequences, block geometries outside the
        # packed kernels, block value counts — and never counts a dispatch.
        calls = metric("repro_packed_kernel_invocations_total")
        before = {kernel: calls.value(kernel=kernel)
                  for kernel in ("ones_count", "block_ones", "block_longest_one_runs")}
        BatchContext(np.zeros((2, 0), dtype=np.uint8)).ones()
        ctx = BatchContext(sequences)
        ctx.block_sums(20)
        ctx.block_longest_one_runs(20)
        ctx.block_value_counts(4)
        assert {kernel: calls.value(kernel=kernel) for kernel in before} == before


class TestStreamingInstrumentation:
    def test_push_roll_and_wrap_counters(self):
        ingested = metric("repro_stream_bits_ingested_total")
        rolls = metric("repro_stream_window_rolls_total")
        wraps = metric("repro_stream_ring_wraps_total")
        ingested_before = ingested.value()
        rolls_before = rolls.value()
        wraps_before = wraps.value()

        rng = np.random.default_rng(5)
        stream = StreamingBatchContext(2, 128)
        # An unaligned word commit (1 word) followed by a full-ring commit
        # forces the write to wrap past the end of the 2-word ring.
        stream.push(rng.integers(0, 2, size=(2, 64), dtype=np.uint8))
        stream.push(rng.integers(0, 2, size=(2, 128), dtype=np.uint8))
        stream.push(rng.integers(0, 2, size=(2, 128), dtype=np.uint8))

        assert ingested.value() - ingested_before == 2 * (64 + 128 + 128)
        assert rolls.value() - rolls_before > 0
        assert wraps.value() - wraps_before > 0

    def test_empty_push_ingests_nothing(self):
        ingested = metric("repro_stream_bits_ingested_total")
        before = ingested.value()
        StreamingBatchContext(2, 128).push(np.zeros((2, 0), dtype=np.uint8))
        assert ingested.value() == before


class TestFleetInstrumentation:
    def test_round_latency_throughput_and_transitions(self):
        rounds = metric("repro_fleet_round_latency_seconds")
        devices_per_s = metric("repro_fleet_devices_per_second")
        transitions = metric("repro_fleet_health_transitions_total")

        def transition_sum():
            return sum(value for _, value in transitions.samples())

        scheduler = small_fleet(num_devices=8)
        rounds_before = rounds.count()
        transitions_before = transition_sum()
        scheduler.run_round()
        assert rounds.count() - rounds_before == 1
        assert devices_per_s.value() > 0
        # Every device folds exactly one observation per round, self-
        # transitions (healthy -> healthy) included.
        assert transition_sum() - transitions_before == 8

    def test_stuck_devices_record_a_failing_transition(self):
        transitions = metric("repro_fleet_health_transitions_total")
        scheduler = small_fleet(num_devices=8)
        before = transitions.value(from_state="healthy", to_state="suspect")
        scheduler.run_round()
        # The 25% stuck-at-1 devices fail their first sequence.
        assert transitions.value(from_state="healthy", to_state="suspect") - before >= 1

    def test_round_trace_tree(self):
        scheduler = small_fleet(num_devices=4)
        obs.clear_traces()
        scheduler.run_round()
        roots = [r for r in obs.TRACER.traces() if r.name == "fleet.run_round"]
        assert roots
        assert [child.name for child in roots[-1].children] == [
            "generate", "evaluate", "fold",
        ]
        obs.clear_traces()

    def test_round_elapsed_matches_span_even_disabled(self):
        scheduler = small_fleet(num_devices=4)
        with obs.disabled():
            fleet_round = scheduler.run_round()
        assert fleet_round.elapsed_s > 0

    def test_ingest_bits_counted(self):
        ingest_bits = metric("repro_fleet_ingest_bits_total")
        scheduler = small_fleet(num_devices=4)
        device_id = scheduler.registry.device_ids()[0]
        before = ingest_bits.value()
        scheduler.ingest(device_id, np.zeros(256, dtype=np.uint8))
        assert ingest_bits.value() - before == 256


class TestCampaignInstrumentation:
    def test_cells_timed_per_design_and_scenario(self):
        cells = metric("repro_campaign_cell_seconds")
        config = CampaignConfig(
            designs=("n128_light",),
            scenarios=("healthy-ideal", "stuck-at-1"),
            trials=1,
            sequences_per_trial=2,
            seed=3,
        )
        before = {
            label: cells.count(design="n128_light", scenario=label)
            for label in config.scenarios
        }
        run_campaign(config)
        for label in config.scenarios:
            assert cells.count(design="n128_light", scenario=label) - before[label] == 1
