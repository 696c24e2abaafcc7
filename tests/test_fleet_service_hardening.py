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
import os
import resource
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

    def test_reply_goes_out_in_one_write(self, harness, monkeypatch):
        """Headers and body leave in one send, not a header send plus a
        body send, for the service's replies and http.server's own."""
        _, _, (host, port) = harness
        sends = []
        for name in ("send", "sendall"):
            inner = getattr(socket.socket, name)

            def counting(sock, data, *args, _inner=inner):
                if sock.getsockname()[1] == port:  # the server's side only
                    sends.append(len(data))
                return _inner(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counting)
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/fleet/summary")
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200 and json.loads(body)["num_devices"] >= 0
            assert sends == [sends[0]] and sends[0] > len(body)
            sends.clear()
            connection.request("PUT", "/fleet/summary")  # send_error(501)
            response = connection.getresponse()
            body = response.read()
            assert response.status == 501 and response.will_close
            assert sends == [sends[0]] and sends[0] > len(body)
        finally:
            connection.close()

    def test_expect_100_continue_is_answered_at_once(self, harness):
        """The interim 100 reply is sent before the body is read, not left
        in the write buffer while the client waits for it."""
        base, _, (host, port) = harness
        register(base, "continue-dev")
        body = json.dumps({"device_id": "continue-dev", "bits": GOOD_BITS}).encode()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            sock.settimeout(2)
            assert sock.recv(4096).startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            assert sock.recv(4096).startswith(b"HTTP/1.1 200 OK\r\n")

    def test_error_reply_says_connection_close(self, harness):
        """A reply after which the server closes the socket says so, and a
        keep-alive client goes on without a connection retry."""
        base, _, (host, port) = harness
        register(base, "close-dev")
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST", "/ingest", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.will_close
            assert response.getheader("Connection") == "close"
            response.read()
            # http.client reopens the connection it was told is closing.
            connection.request(
                "POST", "/ingest",
                body=json.dumps({"device_id": "close-dev", "bits": GOOD_BITS}),
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 200
        finally:
            connection.close()
        before = _client_retries("connection")
        with FleetClient(base, retries=2, backoff_s=0.01) as client:
            with pytest.raises(FleetServiceError) as excinfo:
                client.ingest("close-dev", "0x1")
            assert excinfo.value.status == 400
            assert client.ingest("close-dev", GOOD_BITS)["sequences"] == 1
        assert _client_retries("connection") == before


def _client_retries(reason):
    from repro.fleet.client import _RETRIES

    return _RETRIES.value(reason=reason)


@pytest.fixture
def fresh_server():
    """A factory of private servers (``serve`` keyword arguments), each
    torn down after the test; yields (server, base URL, (host, port))."""
    started = []

    def start(**kwargs):
        scheduler = FleetScheduler(DeviceRegistry("n128_light", alpha=0.01))
        server = serve(scheduler, host="127.0.0.1", port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, scheduler, thread))
        host, port = server.server_address
        return server, f"http://{host}:{port}", (host, port)

    yield start
    for server, scheduler, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        scheduler.close()


class _ConnectionThreads:
    """Counts a server's connection threads: those running now, and the
    most that ever ran at once."""

    def __init__(self, server):
        self._lock = threading.Lock()
        self._running = set()
        self.peak = 0
        run, shut = server.process_request_thread, server.shutdown_request

        def running(request, client_address):
            with self._lock:
                self._running.add(request)
                self.peak = max(self.peak, len(self._running))
            run(request, client_address)

        def shutting(request):
            # Counted out before the server frees the connection's slot.
            with self._lock:
                self._running.discard(request)
            shut(request)

        server.process_request_thread = running
        server.shutdown_request = shutting

    @property
    def running(self):
        with self._lock:
            return len(self._running)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _read_to_eof(sock):
    reply = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return reply
        reply += chunk


class TestConnectionPool:
    def test_client_reuses_one_connection(self, fresh_server):
        server, base, _ = fresh_server()
        accepted = []
        inner = server.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            return inner(request, client_address)

        server.process_request = counting
        with FleetClient(base, retries=0) as client:
            client.register_device("reuse-dev")
            for seq in range(20):
                assert client.ingest("reuse-dev", GOOD_BITS, seq=seq)["last_seq"] == seq
        assert len(accepted) == 1

    def test_idle_close_costs_no_retry(self, fresh_server, monkeypatch):
        monkeypatch.setattr(service_module._FleetRequestHandler, "timeout", 0.2)
        server, base, _ = fresh_server()
        before = _client_retries("connection")
        with FleetClient(base, retries=0) as client:
            client.register_device("idle-dev")
            # The server times the idle keep-alive connection out and
            # closes it; the next request must reconnect, not fail.
            _wait_for(lambda: not server._open)
            assert client.ingest("idle-dev", GOOD_BITS)["sequences"] == 1
        assert _client_retries("connection") == before

    def test_connections_beyond_the_cap_get_503(self, fresh_server, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 4)
        server, _, (host, port) = fresh_server(retry_after_s=0.25)
        threads = _ConnectionThreads(server)
        rejected = service_module._CONNECTIONS_REJECTED.value()
        # Connections that never sent a request are not idle keep-alive
        # connections, so none of them is closed to make room.
        idle = [socket.create_connection((host, port), timeout=10) for _ in range(4)]
        try:
            _wait_for(lambda: threads.running == 4)
            for _ in range(2):
                with socket.create_connection((host, port), timeout=10) as extra:
                    reply = _read_to_eof(extra)
                head, _, body = reply.partition(b"\r\n\r\n")
                lines = head.decode("ascii").split("\r\n")
                assert lines[0] == "HTTP/1.1 503 Service Unavailable"
                assert "Retry-After: 0.25" in lines and "Connection: close" in lines
                assert "connection limit (4)" in json.loads(body)["error"]
            assert threads.running == 4
            assert service_module._CONNECTIONS_REJECTED.value() == rejected + 2
            # A freed slot is served again.
            idle.pop().close()
            _wait_for(lambda: len(server._open) == 3)
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request("GET", "/fleet/summary")
                assert connection.getresponse().status == 200
            finally:
                connection.close()
        finally:
            for sock in idle:
                sock.close()
        assert threads.peak == 4

    def test_idle_keep_alive_connection_makes_room(self, fresh_server, monkeypatch):
        """More keep-alive clients than the cap are all served: a newcomer
        closes the longest-idle connection, whose client reconnects on its
        next request without a retry."""
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 2)
        server, base, _ = fresh_server()
        threads = _ConnectionThreads(server)
        counts = lambda: (  # noqa: E731
            _client_retries("connection"),
            _client_retries("http_503"),
            service_module._CONNECTIONS_REJECTED.value(),
        )
        before = counts()
        clients = [FleetClient(base, retries=0) for _ in range(3)]
        try:
            for _ in range(3):
                for client in clients:
                    assert client.fleet_summary()["num_devices"] == 0
        finally:
            for client in clients:
                client.close()
        assert counts() == before
        assert threads.peak == 2

    def test_connect_burst_is_answered_without_stalls(self, fresh_server, monkeypatch):
        """A burst of connects beyond the cap is queued by the kernel and
        answered at once, not dropped into ~1 s SYN retransmits."""
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 4)
        _, _, (host, port) = fresh_server()
        start = time.monotonic()
        burst = [socket.create_connection((host, port), timeout=10) for _ in range(12)]
        elapsed = time.monotonic() - start
        try:
            for sock in burst[4:]:
                assert _read_to_eof(sock).startswith(b"HTTP/1.1 503 ")
        finally:
            for sock in burst:
                sock.close()
        assert elapsed < 0.9, f"12 connects took {elapsed:.2f} s"

    def test_client_at_the_cap_reads_the_503(self, fresh_server, monkeypatch):
        """The server answers and closes before reading the request, so the
        client's body send fails; the client still reads the 503 and
        honours its Retry-After instead of counting a connection error."""
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 1)
        server, base, (host, port) = fresh_server(retry_after_s=0.01)
        with socket.create_connection((host, port), timeout=10):
            _wait_for(lambda: len(server._open) == 1)
            before = _client_retries("http_503"), _client_retries("connection")
            with FleetClient(base, retries=1, backoff_s=0.01) as client:
                with pytest.raises(FleetServiceError) as excinfo:
                    client.ingest("nobody", GOOD_BITS)
        assert excinfo.value.status == 503
        assert "connection limit (1)" in excinfo.value.message
        assert (_client_retries("http_503"), _client_retries("connection")) == (
            before[0] + 1, before[1],
        )

    def test_close_ends_idle_keep_alive_connections_promptly(self, fresh_server):
        server, base, _ = fresh_server()
        threads = _ConnectionThreads(server)
        client = FleetClient(base, retries=0)
        try:
            client.fleet_summary()  # leaves one idle keep-alive connection
            assert threads.running == 1
            start = time.monotonic()
            server.shutdown()
            server.server_close()
            _wait_for(lambda: threads.running == 0, timeout=2.0)
            assert time.monotonic() - start < 2.0
        finally:
            client.close()

    def test_one_client_shared_by_two_threads(self, fresh_server):
        _, base, _ = fresh_server()
        replies = {}
        with FleetClient(base, retries=0) as client:
            for device_id in ("share-a", "share-b"):
                client.register_device(device_id)

            def feed(device_id):
                replies[device_id] = [
                    client.ingest(device_id, GOOD_BITS, seq=seq) for seq in range(15)
                ]

            threads = [
                threading.Thread(target=feed, args=(device_id,))
                for device_id in ("share-a", "share-b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            for device_id in ("share-a", "share-b"):
                got = replies[device_id]
                assert [r["device_id"] for r in got] == [device_id] * 15
                assert [r["last_seq"] for r in got] == list(range(15))
                assert client.device_health(device_id)["sequences_monitored"] == 15


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

    def test_idle_check_works_past_fd_1024(self):
        """The idle-connection check is not limited to select's
        descriptors below 1024, so keep-alive survives many open files."""
        from repro.fleet.client import _closed_by_peer

        high = 1500
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= high:
            pytest.skip("open-file limit too low for a descriptor past 1024")
        ours, theirs = socket.socketpair()
        try:
            os.dup2(ours.fileno(), high)
            with socket.socket(fileno=high) as sock:
                assert not _closed_by_peer(sock)
                theirs.close()
                assert _closed_by_peer(sock)
        finally:
            ours.close()
            theirs.close()

    def test_client_validation(self):
        with pytest.raises(ValueError):
            FleetClient("http://x", retries=-1)
        with pytest.raises(ValueError):
            FleetClient("ftp://x")
