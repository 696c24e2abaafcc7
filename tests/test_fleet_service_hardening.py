"""Degradation-path tests of the fleet service: caps, shedding, quarantine.

The happy paths live in ``tests/test_fleet_service.py``; this module pins
the graceful-degradation contracts added with the durability layer — body
caps (413), structured errors, truncated bodies, backpressure (429 +
``Retry-After``), draining (503), per-device quarantine (403), sequenced
ingest over HTTP, and the client-side half of those contracts.
"""

import http.client
import json
import logging
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.fleet import (
    DeviceRegistry,
    DurableFleet,
    FleetClient,
    FleetScheduler,
    FleetServiceError,
    recover_fleet,
    serve,
)
from repro.fleet import service as service_module
from repro.fleet.service import FleetService, ServiceError, _retry_headers

GOOD_BITS = "01" * 64  # one n=128 sequence


@pytest.fixture(scope="module")
def harness():
    registry = DeviceRegistry("n128_light", alpha=0.01)
    scheduler = FleetScheduler(registry)
    server = serve(
        scheduler,
        host="127.0.0.1",
        port=0,
        max_body_bytes=4096,
        retry_after_s=0.25,
        quarantine_after=2,
    )
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", server.service, (host, port)
    server.shutdown()
    server.server_close()
    scheduler.close()
    thread.join(timeout=5)


def call(base, method, path, payload=None, raw_body=None):
    """One request; returns (status, decoded JSON body, headers)."""
    if raw_body is not None:
        data = raw_body
    else:
        data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def register(base, device_id):
    status, body, _ = call(base, "POST", "/devices", {"device_id": device_id})
    assert status == 201, body
    return body


class TestBodyLimits:
    def test_oversized_body_is_413(self, harness):
        base, _, _ = harness
        register(base, "cap-413")
        status, body, _ = call(
            base, "POST", "/ingest",
            {"device_id": "cap-413", "bits": "01" * 4096},
        )
        assert status == 413
        assert "4096 bytes" in body["error"]

    def test_invalid_json_is_a_structured_400(self, harness):
        base, _, _ = harness
        status, body, _ = call(base, "POST", "/ingest", raw_body=b"{not json")
        assert status == 400
        assert body["error"].startswith("invalid JSON body")

    def test_non_object_json_body_is_400(self, harness):
        base, _, _ = harness
        status, body, _ = call(base, "POST", "/ingest", raw_body=b"[1, 2]")
        assert status == 400
        assert body["error"] == "JSON body must be an object"

    def test_empty_body_is_400(self, harness):
        base, _, _ = harness
        status, body, _ = call(base, "POST", "/ingest", raw_body=b"")
        assert status == 400
        assert body["error"] == "request body required"

    def test_truncated_body_is_400_not_a_hang(self, harness):
        # A client that lies about Content-Length and dies mid-body must get
        # a clean 400, not block the worker or half-parse the fragment.
        _, _, (host, port) = harness
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 500\r\n"
                b"\r\n"
                b'{"device_id":'
            )
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert b"400" in status_line
        assert b"truncated request body" in rest

    def test_unknown_routes_are_json_404s(self, harness):
        base, _, _ = harness
        status, body, _ = call(base, "GET", "/nope")
        assert status == 404 and "unknown path" in body["error"]
        status, body, _ = call(base, "POST", "/nope", {"x": 1})
        assert status == 404 and "unknown path" in body["error"]

    def test_unhandled_exception_becomes_500(self, harness, monkeypatch):
        base, service, _ = harness

        def boom():
            raise RuntimeError("synthetic facade bug")

        monkeypatch.setattr(service, "fleet_summary", boom)
        status, body, _ = call(base, "GET", "/fleet/summary")
        assert status == 500
        assert body == {"error": "internal server error"}


PARTIAL_POST = (
    b"POST /ingest HTTP/1.1\r\n"
    b"Host: test\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 500\r\n"
    b"\r\n"
    b'{"device_id":'
)


def _connection_errors():
    return sum(value for _, value in service_module._CONNECTION_ERRORS.samples())


class TestStalledClients:
    def test_stalled_body_gets_408_within_the_read_timeout(self, harness, monkeypatch):
        # A client that sends headers and part of the body, then goes
        # silent, must not hold a server thread indefinitely.
        handler = service_module._FleetRequestHandler
        assert handler.timeout == service_module.READ_TIMEOUT_S > 0
        monkeypatch.setattr(handler, "timeout", 0.3)
        _, _, (host, port) = harness
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(PARTIAL_POST)
            start = time.monotonic()
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
            elapsed = time.monotonic() - start
        status_line, _, rest = reply.partition(b"\r\n")
        assert b"408" in status_line
        assert b"request body not received within 0.3 s" in rest
        assert elapsed < 5.0

    def test_disconnect_is_one_warning_and_nothing_on_stderr(self, harness, capfd, caplog):
        _, _, (host, port) = harness
        before = _connection_errors()
        caplog.set_level(logging.WARNING, logger="repro.fleet.service")
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(PARTIAL_POST)
        # Close with a reset (linger 0) mid-body: the server's next socket
        # call fails with a connection error.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        deadline = time.monotonic() + 5.0
        while _connection_errors() == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _connection_errors() == before + 1
        assert capfd.readouterr().err == ""
        dropped = [
            record for record in caplog.records
            if record.name == "repro.fleet.service" and "dropped" in record.getMessage()
        ]
        assert len(dropped) == 1
        assert dropped[0].levelno == logging.WARNING
        assert not dropped[0].exc_info  # no traceback
        assert "ConnectionResetError" in dropped[0].getMessage()


class TestBackpressure:
    def test_zero_capacity_sheds_with_429_and_retry_after(
        self, harness, monkeypatch
    ):
        base, service, _ = harness
        register(base, "shed-429")
        monkeypatch.setattr(service, "max_inflight_ingests", 0)
        status, body, headers = call(
            base, "POST", "/ingest", {"device_id": "shed-429", "bits": GOOD_BITS}
        )
        assert status == 429
        assert "capacity" in body["error"]
        assert headers["Retry-After"] == "0.25"

    def test_draining_sheds_with_503_and_retry_after(self, harness, monkeypatch):
        base, service, _ = harness
        register(base, "shed-503")
        monkeypatch.setattr(service, "_draining", True)
        status, body, headers = call(
            base, "POST", "/ingest", {"device_id": "shed-503", "bits": GOOD_BITS}
        )
        assert status == 503
        assert body["error"] == "service is draining"
        assert headers["Retry-After"] == "0.25"

    def test_non_ingest_routes_keep_working_while_draining(
        self, harness, monkeypatch
    ):
        base, service, _ = harness
        monkeypatch.setattr(service, "_draining", True)
        status, body, _ = call(base, "GET", "/fleet/summary")
        assert status == 200 and "num_devices" in body

    def test_drain_waits_for_inflight_and_returns_clean(self):
        registry = DeviceRegistry("n128_light", alpha=0.01)
        service = FleetService(FleetScheduler(registry))
        service._admit_ingest()
        assert not service.drain(timeout=0.05)  # dirty: one still in flight
        service._release_ingest()
        assert service.drain(timeout=1.0)

    def test_retry_after_header_formatting(self):
        assert _retry_headers(ServiceError(429, "x", retry_after=1.5)) == (
            ("Retry-After", "1.5"),
        )
        assert _retry_headers(ServiceError(400, "x")) == ()

    def test_policy_validation(self):
        registry = DeviceRegistry("n128_light", alpha=0.01)
        scheduler = FleetScheduler(registry)
        with pytest.raises(ValueError):
            FleetService(scheduler, max_body_bytes=0)
        with pytest.raises(ValueError):
            FleetService(scheduler, max_inflight_ingests=-1)
        with pytest.raises(ValueError):
            FleetService(scheduler, quarantine_after=0)


class TestQuarantine:
    def test_repeatedly_malformed_device_is_cut_off(self, harness):
        base, _, _ = harness
        register(base, "abuser")
        for _ in range(2):  # quarantine_after=2
            status, body, _ = call(
                base, "POST", "/ingest", {"device_id": "abuser", "bits": "0x1"}
            )
            assert status == 400
        status, body, _ = call(
            base, "POST", "/ingest", {"device_id": "abuser", "bits": GOOD_BITS}
        )
        assert status == 403
        assert "quarantined" in body["error"]

    def test_one_good_ingest_resets_the_malformed_count(self, harness):
        base, _, _ = harness
        register(base, "wobbly")
        status, _, _ = call(
            base, "POST", "/ingest", {"device_id": "wobbly", "bits": "0x1"}
        )
        assert status == 400
        status, _, _ = call(
            base, "POST", "/ingest", {"device_id": "wobbly", "bits": GOOD_BITS}
        )
        assert status == 200
        status, _, _ = call(
            base, "POST", "/ingest", {"device_id": "wobbly", "bits": "0x1"}
        )
        assert status == 400  # count restarted: still below the threshold
        status, _, _ = call(
            base, "POST", "/ingest", {"device_id": "wobbly", "bits": GOOD_BITS}
        )
        assert status == 200

    def test_malformed_counts_do_not_cross_devices(self, harness):
        base, _, _ = harness
        register(base, "noisy-1")
        register(base, "noisy-2")
        for device in ("noisy-1", "noisy-2"):
            status, _, _ = call(
                base, "POST", "/ingest", {"device_id": device, "bits": "0x1"}
            )
            assert status == 400
        status, _, _ = call(
            base, "POST", "/ingest", {"device_id": "noisy-1", "bits": GOOD_BITS}
        )
        assert status == 200


class TestSequencedIngestOverHttp:
    def test_seq_success_duplicate_and_gap(self, harness):
        base, _, _ = harness
        register(base, "seq-dev")
        status, body, _ = call(
            base, "POST", "/ingest",
            {"device_id": "seq-dev", "bits": GOOD_BITS, "seq": 0},
        )
        assert status == 200 and body["last_seq"] == 0

        # Blind retry of the same chunk: idempotent success, no re-evaluation.
        status, body, _ = call(
            base, "POST", "/ingest",
            {"device_id": "seq-dev", "bits": GOOD_BITS, "seq": 0},
        )
        assert status == 200
        assert body["duplicate"] is True and body["sequences"] == 0
        assert body["last_seq"] == 0 and body["health"]["device_id"] == "seq-dev"

        # A gap is a hard conflict the client must not paper over.
        status, body, _ = call(
            base, "POST", "/ingest",
            {"device_id": "seq-dev", "bits": GOOD_BITS, "seq": 5},
        )
        assert status == 409 and "expected ingest seq 1" in body["error"]

        status, body, _ = call(
            base, "POST", "/ingest",
            {"device_id": "seq-dev", "bits": GOOD_BITS, "seq": 1},
        )
        assert status == 200 and body["last_seq"] == 1

    @pytest.mark.parametrize("bad_seq", [-1, True, "3", 1.5])
    def test_invalid_seq_is_400(self, harness, bad_seq):
        base, _, _ = harness
        register(base, f"seq-bad-{str(bad_seq).replace('.', '_')}")
        status, body, _ = call(
            base, "POST", "/ingest",
            {"device_id": "seq-dev", "bits": GOOD_BITS, "seq": bad_seq},
        )
        assert status == 400
        assert "seq must be a non-negative integer" in body["error"]


class TestKeepAlive:
    def test_reused_connection_does_not_stall_on_delayed_acks(self, harness):
        """Replies go out without Nagle's wait for the ACK of the header
        send, so a keep-alive client is not held ~40 ms per request."""
        base, _, (host, port) = harness
        register(base, "keepalive-dev")
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.perf_counter()
            for seq in range(20):
                connection.request(
                    "POST", "/ingest",
                    body=json.dumps({"device_id": "keepalive-dev", "bits": GOOD_BITS, "seq": seq}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200, response.read()
                assert json.loads(response.read())["last_seq"] == seq
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.4, f"20 keep-alive ingests took {elapsed:.3f} s"


class TestRegistrationValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {"scenario": "healthy-ideal", "seed": -1},
            {"scenario": "healthy-ideal", "seed": True},
            {"seed": False},
            {"scenario": "no-such-threat"},
        ],
        ids=["negative-seed", "bool-seed", "bool-seed-external", "unknown-scenario"],
    )
    def test_rejected_registration_is_not_journaled(self, tmp_path, payload):
        """A registration answered with 400 must leave no write-ahead record:
        replaying one would count a journal error on recovery."""
        scheduler = FleetScheduler(DeviceRegistry("n128_light", alpha=0.01))
        durable = DurableFleet(scheduler, tmp_path)
        durable.start()
        server = serve(scheduler, host="127.0.0.1", port=0)
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            status, body, _ = call(
                base, "POST", "/devices", {"device_id": "bad-dev", **payload}
            )
            assert status == 400, body
            register(base, "good-dev")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            durable.close(final_snapshot=False)
            scheduler.close()
        recovered, stats = recover_fleet(tmp_path)
        assert stats.errors == 0
        assert recovered.registry.device_ids() == ("good-dev",)
        recovered.close()


class TestFleetClient:
    def test_retries_transient_failures_then_succeeds(self, harness, monkeypatch):
        base, service, _ = harness
        register(base, "flaky")
        inner = service.handle_post
        failures = {"left": 2}

        def fail_twice(path, payload):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ServiceError(503, "synthetic flake", retry_after=0.01)
            return inner(path, payload)

        monkeypatch.setattr(service, "handle_post", fail_twice)
        client = FleetClient(base, retries=3, backoff_s=0.01, backoff_cap_s=0.02)
        body = client.ingest("flaky", GOOD_BITS)
        assert body["sequences"] == 1
        assert failures["left"] == 0

    def test_client_errors_are_not_retried(self, harness):
        base, _, _ = harness
        register(base, "client-400")
        client = FleetClient(base, retries=3, backoff_s=0.01)
        with pytest.raises(FleetServiceError) as excinfo:
            client.ingest("client-400", "not-bits")
        assert excinfo.value.status == 400

    def test_retry_exhaustion_surfaces_the_last_status(self, harness, monkeypatch):
        base, service, _ = harness
        monkeypatch.setattr(service, "max_inflight_ingests", 0)
        monkeypatch.setattr(service, "retry_after_s", 0.01)
        register(base, "full-up")
        client = FleetClient(base, retries=1, backoff_s=0.01)
        with pytest.raises(FleetServiceError) as excinfo:
            client.ingest("full-up", GOOD_BITS)
        assert excinfo.value.status == 429

    def test_register_exist_ok_reads_as_success(self, harness):
        base, _, _ = harness
        client = FleetClient(base, retries=0)
        first = client.register_device("idem", seed=9)
        again = client.register_device("idem", exist_ok=True)
        assert first["device_id"] == again["device_id"] == "idem"
        with pytest.raises(FleetServiceError) as excinfo:
            client.register_device("idem")
        assert excinfo.value.status == 409

    def test_unreachable_service_raises_503_after_retries(self):
        client = FleetClient(
            "http://127.0.0.1:9", timeout_s=0.2, retries=1, backoff_s=0.01
        )
        with pytest.raises(FleetServiceError) as excinfo:
            client.fleet_summary()
        assert excinfo.value.status == 503
        assert "unreachable" in excinfo.value.message

    def test_client_validation(self):
        with pytest.raises(ValueError):
            FleetClient("http://x", retries=-1)
