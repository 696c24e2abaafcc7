"""The three observability surfaces: /metrics, /metrics.json, the CLI."""

import io
import json
import logging
import re
import threading
import urllib.request

import pytest

import repro.obs as obs
from repro.cli import build_parser, main
from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler, serve
from repro.fleet.service import METRICS_CONTENT_TYPE, _route_label
from repro.trng.ideal import IdealSource


@pytest.fixture()
def server_base():
    registry = DeviceRegistry("n128_light", alpha=0.01)
    registry.populate(8, FleetMix.healthy_with_threats(0.9), seed=4)
    scheduler = FleetScheduler(registry)
    scheduler.run(1)
    server = serve(scheduler, host="127.0.0.1", port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, dict(response.headers), response.read().decode("utf-8")


def post(base, path, payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def ingest_one(base, device_id="obs-probe", nbits=256):
    bits = "".join(str(b) for b in IdealSource(seed=31).generate_block(nbits))
    post(base, "/devices", {"device_id": device_id})
    return post(base, "/ingest", {"device_id": device_id, "bits": bits})


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$"
)


def parse_samples(text):
    """Exposition text -> {'name{labels}': float}; asserts every line parses."""
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), f"bad comment: {line!r}"
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed exposition line: {line!r}"
        samples[match.group(1)] = float(match.group(2))
    return samples


class TestMetricsEndpoint:
    def test_exposition_is_parseable_with_the_advertised_content_type(self, server_base):
        status, headers, text = get(server_base, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        samples = parse_samples(text)
        assert samples, "empty exposition"

    def test_core_metrics_nonzero_after_one_ingest_round(self, server_base):
        ingest_one(server_base)
        _, _, text = get(server_base, "/metrics")
        samples = parse_samples(text)
        assert samples["repro_fleet_round_latency_seconds_count"] >= 1
        assert samples["repro_fleet_ingest_bits_total"] >= 256
        assert samples["repro_fleet_devices_per_second"] > 0
        assert samples["repro_engine_bits_evaluated_total"] > 0
        path_keys = [k for k in samples if k.startswith("repro_engine_tests_total")]
        assert path_keys and sum(samples[k] for k in path_keys) > 0
        transition_keys = [
            k for k in samples if k.startswith("repro_fleet_health_transitions_total")
        ]
        assert transition_keys and sum(samples[k] for k in transition_keys) > 0

    def test_counters_are_monotonic_across_two_rounds(self, server_base):
        ingest_one(server_base, device_id="obs-m1")
        _, _, before_text = get(server_base, "/metrics")
        before = parse_samples(before_text)
        ingest_one(server_base, device_id="obs-m2")
        _, _, after_text = get(server_base, "/metrics")
        after = parse_samples(after_text)
        cumulative = tuple(
            key for key in before
            if key.split("{")[0].endswith(("_total", "_count", "_bucket"))
        )
        assert cumulative
        for key in cumulative:
            assert after.get(key, 0.0) >= before[key], f"{key} went backwards"
        assert (
            after["repro_fleet_ingest_bits_total"]
            == before["repro_fleet_ingest_bits_total"] + 256
        )

    def test_request_accounting_includes_the_previous_scrape(self, server_base):
        key = 'repro_service_requests_total{method="GET",route="/metrics",status="200"}'
        _, _, text = get(server_base, "/metrics")
        first = parse_samples(text).get(key, 0.0)
        assert first >= 1  # the in-flight scrape is accounted before the body
        _, _, text = get(server_base, "/metrics")
        assert parse_samples(text)[key] == first + 1


class TestMetricsJsonEndpoint:
    def test_snapshot_shape(self, server_base):
        status, headers, text = get(server_base, "/metrics.json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(text)
        by_name = {metric["name"]: metric for metric in payload["metrics"]}
        assert "repro_fleet_round_latency_seconds" in by_name
        histogram = by_name["repro_fleet_round_latency_seconds"]
        assert histogram["type"] == "histogram"
        for sample in histogram["samples"]:
            assert sample["buckets"]["+Inf"] == sample["count"]


class TestServiceLogging:
    def test_requests_logged_with_status_and_latency(self, server_base, caplog):
        with caplog.at_level(logging.INFO, logger="repro.fleet.service"):
            get(server_base, "/fleet/summary")
        messages = [
            record.getMessage() for record in caplog.records
            if record.name == "repro.fleet.service" and record.levelno == logging.INFO
        ]
        assert any(
            "GET /fleet/summary -> 200" in message and "ms" in message
            for message in messages
        )

    def test_route_labels_collapse_device_ids(self):
        assert _route_label("/devices/edge-7/health") == "/devices/<id>/health"
        assert _route_label("/metrics") == "/metrics"
        assert _route_label("/metrics.json") == "/metrics.json"
        assert _route_label("/nonsense") == "<unknown>"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestMetricsCommand:
    def test_renders_workload_metrics_as_text(self):
        code, text = run_cli(
            ["metrics", "--", "batch", "--sequences", "4", "--length", "2048",
             "--tests", "1,3"]
        )
        assert code == 0
        assert "# TYPE repro_engine_bits_evaluated_total counter" in text
        parse_samples("\n".join(
            line for line in text.splitlines() if line.startswith(("#", "repro_"))
        ))

    def test_json_output_is_a_snapshot(self):
        code, text = run_cli(
            ["metrics", "--json", "--", "batch", "--sequences", "2",
             "--length", "2048", "--tests", "1"]
        )
        assert code == 0
        start = text.index("{")
        payload = json.loads(text[start:])
        names = {metric["name"] for metric in payload["metrics"]}
        assert "repro_engine_bits_evaluated_total" in names

    def test_without_workload_dumps_current_registry(self):
        code, text = run_cli(["metrics"])
        assert code == 0
        assert "# HELP" in text

    def test_recursive_metrics_workload_rejected(self):
        code, text = run_cli(["metrics", "metrics"])
        assert code == 2

    def test_workload_exit_code_is_propagated(self):
        code, _ = run_cli(
            ["metrics", "--", "evaluate", "--design", "n128_light",
             "--source", "stuck", "--parameter", "1", "--seed", "1"]
        )
        assert code == 1


class TestTraceFlag:
    def test_batch_trace_covers_pack_dispatch_decision(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, text = run_cli(
            ["batch", "--sequences", "4", "--length", "2048", "--tests", "1,3",
             "--trace", str(trace_path)]
        )
        assert code == 0
        assert f"trace written to {trace_path}" in text
        payload = json.loads(trace_path.read_text())
        roots = payload["traces"]
        assert roots, "trace file holds no root spans"

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        stages = [name for root in roots for name in names(root)]
        # The CLI hands run_batch a prepacked matrix, so there is no pack stage.
        for stage in ("cli.batch", "run_batch"):
            assert stage in stages
        for root in roots:
            assert root["start_s"] == 0.0
            assert set(root) == {
                "name", "start_s", "duration_s", "attributes", "error", "children",
            }

    def test_monitor_and_fleet_accept_trace(self, tmp_path):
        for argv in (
            ["monitor", "--sequences", "2", "--trace", str(tmp_path / "m.json")],
            ["fleet", "run", "--devices", "8", "--rounds", "1",
             "--trace", str(tmp_path / "f.json")],
        ):
            code, _ = run_cli(argv)
            assert code == 0
        fleet_trace = json.loads((tmp_path / "f.json").read_text())
        assert any(root["name"] == "fleet.run_round" for root in fleet_trace["traces"])


class TestQuietFlag:
    def test_serve_parser_accepts_quiet(self):
        args = build_parser().parse_args(["fleet", "serve", "--quiet"])
        assert args.quiet is True
        assert build_parser().parse_args(["fleet", "run"]).quiet is False
