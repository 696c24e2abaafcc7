"""End-to-end tests of the fleet HTTP/JSON service over a real socket."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler, serve
from repro.fleet.service import FleetService, ServiceError
from repro.trng.failures import DeadSource
from repro.trng.ideal import IdealSource


def bits_string(source, num_bits):
    return "".join(str(bit) for bit in source.generate_block(num_bits))


@pytest.fixture(scope="module")
def server_base():
    registry = DeviceRegistry("n128_light", alpha=0.01)
    registry.populate(12, FleetMix.healthy_with_threats(0.9), seed=2)
    scheduler = FleetScheduler(registry)
    scheduler.run(2)
    server = serve(scheduler, host="127.0.0.1", port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def call(base, method, path, payload=None):
    """One HTTP request; returns (status, decoded JSON body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceEndToEnd:
    def test_register_ingest_health_summary(self, server_base):
        """The acceptance flow: register -> ingest -> health -> summary."""
        status, body = call(
            server_base, "POST", "/devices", {"device_id": "edge-dead"}
        )
        assert status == 201
        assert body["state"] == "healthy" and not body["simulated"]

        status, body = call(
            server_base, "POST", "/ingest",
            {"device_id": "edge-dead", "bits": bits_string(DeadSource(), 256)},
        )
        assert status == 200
        assert body["sequences"] == 2
        assert [v["passed"] for v in body["verdicts"]] == [False, False]
        assert body["verdicts"][-1]["state"] == "failed"
        assert 1 in body["verdicts"][0]["failing_tests"]

        status, body = call(server_base, "GET", "/devices/edge-dead/health")
        assert status == 200
        assert body["state"] == "failed"
        assert body["detection_latency_sequences"] == 2

        status, body = call(server_base, "GET", "/fleet/summary")
        assert status == 200
        assert body["num_devices"] == 13  # 12 simulated + the registered one
        assert body["rounds_completed"] == 2
        assert body["health"]["failed"] >= 1
        assert sum(body["health"].values()) == 13
        assert any(s["scenario"] == "external" for s in body["scenarios"])

    def test_healthy_ingest_keeps_device_healthy(self, server_base):
        call(server_base, "POST", "/devices", {"device_id": "edge-ok"})
        status, body = call(
            server_base, "POST", "/ingest",
            {"device_id": "edge-ok", "bits": bits_string(IdealSource(seed=3), 128)},
        )
        assert status == 200
        assert body["health"]["state"] in ("healthy", "suspect")

    def test_register_with_scenario_builds_simulated_device(self, server_base):
        status, body = call(
            server_base, "POST", "/devices",
            {"device_id": "edge-sim", "scenario": "wire-cut", "seed": 1},
        )
        assert status == 201
        assert body["simulated"] and body["scenario"] == "wire-cut"

    def test_duplicate_registration_conflicts(self, server_base):
        call(server_base, "POST", "/devices", {"device_id": "edge-dup"})
        status, body = call(
            server_base, "POST", "/devices", {"device_id": "edge-dup"}
        )
        assert status == 409
        assert "already registered" in body["error"]

    def test_unknown_device_404(self, server_base):
        status, body = call(server_base, "GET", "/devices/missing/health")
        assert status == 404
        status, body = call(
            server_base, "POST", "/ingest", {"device_id": "missing", "bits": "0" * 128}
        )
        assert status == 404

    def test_bad_requests_400(self, server_base):
        # self-contained: register this test's own device first
        status, _ = call(server_base, "POST", "/devices", {"device_id": "edge-400"})
        assert status == 201
        status, _ = call(server_base, "POST", "/ingest", {"device_id": "edge-400"})
        assert status == 400
        status, body = call(
            server_base, "POST", "/ingest",
            {"device_id": "edge-400", "bits": "01x"},
        )
        assert status == 400 and "0" in body["error"]
        status, _ = call(
            server_base, "POST", "/ingest", {"device_id": "edge-400", "bits": "01"}
        )
        assert status == 400
        status, _ = call(
            server_base, "POST", "/devices", {"device_id": "edge-bad-scenario",
                                              "scenario": "not-a-threat"}
        )
        assert status == 400
        status, body = call(
            server_base, "POST", "/devices", {"device_id": "not url safe"}
        )
        assert status == 400 and "URL-safe" in body["error"]

    def test_unknown_paths_404(self, server_base):
        assert call(server_base, "GET", "/nope")[0] == 404
        assert call(server_base, "POST", "/nope", {})[0] == 404

    def test_non_json_body_400(self, server_base):
        request = urllib.request.Request(
            server_base + "/ingest", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_malformed_content_length_400(self, server_base):
        """Regression: a non-numeric Content-Length used to raise an
        unhandled ValueError, dropping the connection with no response."""
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(server_base)
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        connection.putrequest("POST", "/ingest")
        connection.putheader("Content-Length", "abc")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
        connection.close()


class TestServiceConcurrency:
    """Two connections at once: threaded serving with bounded lock holds."""

    def test_slow_summary_does_not_block_ingest(self):
        registry = DeviceRegistry("n128_light", alpha=0.01)
        registry.populate(8, FleetMix.healthy_with_threats(0.9), seed=4)
        scheduler = FleetScheduler(registry)
        scheduler.run(1)
        server = serve(scheduler, host="127.0.0.1", port=0)
        service = server.service
        summary_entered = threading.Event()
        summary_release = threading.Event()
        real_summary = service.fleet_summary

        def slow_summary():
            # Model a slow summary request (huge fleet, slow client): the
            # aggregation completes, then the handler parks before
            # responding.  Nothing here holds the scheduler lock.
            result = real_summary()
            summary_entered.set()
            assert summary_release.wait(timeout=10), "never released"
            return result

        service.fleet_summary = slow_summary
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            summary_result = {}

            def do_get():
                summary_result["response"] = call(base, "GET", "/fleet/summary")

            getter = threading.Thread(target=do_get, daemon=True)
            getter.start()
            assert summary_entered.wait(timeout=10), "GET /fleet/summary never started"

            # Connection 2, while connection 1 is parked mid-summary: the
            # full register + ingest + health flow must complete.
            status, _ = call(base, "POST", "/devices", {"device_id": "edge-conc"})
            assert status == 201
            status, body = call(
                base, "POST", "/ingest",
                {"device_id": "edge-conc",
                 "bits": bits_string(IdealSource(seed=5), 256)},
            )
            assert status == 200 and body["sequences"] == 2
            status, body = call(base, "GET", "/devices/edge-conc/health")
            assert status == 200
            assert summary_result == {}, "summary should still be parked"

            summary_release.set()
            getter.join(timeout=10)
            status, body = summary_result["response"]
            assert status == 200
            assert body["rounds_completed"] == 1
            assert body["streaming"] is False
        finally:
            summary_release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            scheduler.close()


class TestServiceFacade:
    """The facade is callable without sockets (unit-level checks)."""

    def make_service(self):
        registry = DeviceRegistry("n128_light")
        registry.populate(4, FleetMix.healthy_with_threats(0.9), seed=0)
        return FleetService(FleetScheduler(registry))

    def test_register_validates_payload_types(self):
        service = self.make_service()
        for payload in ({}, {"device_id": ""}, {"device_id": 7},
                        {"device_id": "x", "scenario": 3},
                        {"device_id": "x", "seed": "nope"}):
            with pytest.raises(ServiceError) as excinfo:
                service.register_device(payload)
            assert excinfo.value.status in (400, 409)

    def test_summary_without_rounds(self):
        service = self.make_service()
        summary = service.fleet_summary()
        assert summary["rounds_completed"] == 0
        assert summary["devices_per_s"] is None
        assert summary["num_devices"] == 4


class TestStreamingService:
    """Streaming scheduler behind the service: chunked ingest + pending_bits."""

    def make_service(self):
        registry = DeviceRegistry("n128_light")
        registry.populate(4, FleetMix.healthy_with_threats(0.9), seed=0)
        return FleetService(FleetScheduler(registry, streaming=True))

    def test_partial_chunk_pends_then_completes(self):
        service = self.make_service()
        device_id = service.registry.device_ids()[0]
        first = bits_string(IdealSource(seed=41), 100)
        response = service.ingest({"device_id": device_id, "bits": first})
        assert response["sequences"] == 0
        assert response["verdicts"] == []
        assert response["pending_bits"] == 100
        second = bits_string(IdealSource(seed=42), 28)
        response = service.ingest({"device_id": device_id, "bits": second})
        assert response["sequences"] == 1
        assert response["pending_bits"] == 0

    def test_arbitrary_chunk_sizes_accepted(self):
        service = self.make_service()
        device_id = service.registry.device_ids()[1]
        # 1-bit chunks would be rejected by the matrix path; streaming
        # ingest takes them and reports the growing remainder.
        for index in range(3):
            response = service.ingest({"device_id": device_id, "bits": "1"})
            assert response["pending_bits"] == index + 1

    def test_summary_reports_streaming_mode(self):
        service = self.make_service()
        assert service.fleet_summary()["streaming"] is True

    def test_matrix_mode_has_no_pending_bits_field(self):
        registry = DeviceRegistry("n128_light")
        registry.populate(2, FleetMix.healthy_with_threats(0.9), seed=1)
        service = FleetService(FleetScheduler(registry))
        device_id = registry.device_ids()[0]
        response = service.ingest(
            {"device_id": device_id, "bits": bits_string(IdealSource(seed=43), 128)}
        )
        assert "pending_bits" not in response
        assert service.fleet_summary()["streaming"] is False
