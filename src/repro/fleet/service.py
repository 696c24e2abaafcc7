"""Stdlib HTTP/JSON front-end over a fleet: ingest, health, summary.

The thin service tier the ROADMAP's production system puts in front of the
engine — deliberately ``http.server``-based so the repository gains a real
network-facing API without a single new dependency.  Endpoints:

``POST /devices``
    Register a device.  Body ``{"device_id": "...", "scenario": "<label>"}``;
    omit ``scenario`` to register an externally-fed device whose bits arrive
    only through ingest.
``POST /ingest``
    Evaluate raw bits for a registered device.  Body ``{"device_id": "...",
    "bits": "0101..."}`` where ``bits`` is an ASCII 0/1 string holding a
    positive multiple of the design's sequence length; every n-bit sequence
    runs through the engine's batch path and folds into the device's health
    machine.  Responds with the per-sequence verdicts and the new state.
    On a streaming scheduler the multiple-of-n restriction is lifted: any
    chunk size is accepted, windows are evaluated from the device's packed
    ring as they complete, and the response's ``pending_bits`` reports the
    partial sequence still waiting in the ring.
``GET /devices/<id>/health``
    Health snapshot of one device.
``GET /fleet/summary``
    Fleet-wide summary: health mix, scenario mix, throughput, the
    per-scenario detection table of :class:`~repro.fleet.report.FleetReport`.
``GET /metrics``
    The process-wide :mod:`repro.obs` registry in Prometheus text
    exposition format 0.0.4 (round latency histogram, bits counters,
    execution-path and health-transition counters, request metrics, ...).
``GET /metrics.json``
    The same registry as a structured JSON snapshot.

Requests are logged through the ``repro.fleet.service`` :mod:`logging`
logger — one INFO line per request with method, path, status and latency —
instead of ``http.server``'s raw stderr lines (the CLI's ``fleet serve``
wires a handler; ``--quiet`` drops it to warnings only).

The server is a :class:`~http.server.ThreadingHTTPServer` (daemon threads,
one per connection), and lock holds are bounded: requests take the
scheduler's re-entrant lock — the same lock
:meth:`~repro.fleet.scheduler.FleetScheduler.run_round` holds — only around
the registry/health mutations and snapshots, never around engine evaluation
or response serialisation.  A slow ``GET /fleet/summary`` (large fleet, slow
client) therefore no longer blocks a concurrent ``POST /ingest`` on another
connection, and vice versa (pinned by the two-connection e2e test in
``tests/test_fleet_service.py``).
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import unquote, urlsplit

import repro.obs as obs
from repro.fleet.registry import DeviceRegistry
from repro.fleet.scheduler import (
    DuplicateIngestError,
    FleetScheduler,
    IngestSequenceGapError,
)

__all__ = ["FleetService", "ServiceError", "serve"]

#: Per-request log lines (INFO) and raw ``http.server`` chatter (DEBUG)
#: both flow through here; unconfigured, nothing reaches stderr.
logger = logging.getLogger("repro.fleet.service")

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_REQUESTS = obs.counter(
    "repro_service_requests_total",
    "HTTP requests served by the fleet service, by method, route and status.",
    labels=("method", "route", "status"),
)
_REQUEST_SECONDS = obs.histogram(
    "repro_service_request_seconds",
    "Wall time of one fleet-service request (dispatch through response body).",
    labels=("method",),
)
_INGEST_SHED = obs.counter(
    "repro_service_ingest_shed_total",
    "Ingest requests load-shed by the service, by reason (backpressure/draining).",
    labels=("reason",),
)
_QUARANTINED = obs.counter(
    "repro_service_quarantined_total",
    "Devices quarantined by the service after repeated malformed ingests.",
)

#: Known route templates, so the request counter's cardinality stays fixed
#: no matter what paths clients probe.
_ROUTES = (
    (re.compile(r"^/metrics$"), "/metrics"),
    (re.compile(r"^/metrics\.json$"), "/metrics.json"),
    (re.compile(r"^/fleet/summary$"), "/fleet/summary"),
    (re.compile(r"^/devices/[^/]+/health$"), "/devices/<id>/health"),
    (re.compile(r"^/devices$"), "/devices"),
    (re.compile(r"^/ingest$"), "/ingest"),
)


def _route_label(path: str) -> str:
    """The route template of ``path`` (``<unknown>`` off the route table)."""
    clean = urlsplit(path).path.rstrip("/") or "/"
    for pattern, label in _ROUTES:
        if pattern.match(clean):
            return label
    return "<unknown>"

#: Cap on accepted request bodies (a 2^20-bit design ingest is ~1 MiB of
#: ASCII bits; anything far beyond that is a client error, not traffic).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Service-registered device ids must be URL-safe so ``GET
#: /devices/<id>/health`` can always address them (a "/" or space in the id
#: would make the device unreachable through the path-segment router).
_DEVICE_ID_RE = re.compile(r"^[A-Za-z0-9._~-]+$")


class ServiceError(Exception):
    """An error with an HTTP status code attached.

    ``retry_after`` (seconds) surfaces as a ``Retry-After`` header — the
    backpressure contract of the 429 load-shedding path, which well-behaved
    clients (:class:`~repro.fleet.client.FleetClient`) honour before
    retrying.
    """

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class FleetService:
    """The service facade: JSON dict in, JSON dict out, no HTTP types.

    Keeping the endpoint logic free of ``http.server`` machinery makes it
    unit-testable without sockets; the handler below is a thin shell.
    """

    def __init__(
        self,
        scheduler: FleetScheduler,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        max_inflight_ingests: Optional[int] = None,
        retry_after_s: float = 1.0,
        quarantine_after: Optional[int] = None,
    ):
        if max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")
        if max_inflight_ingests is not None and max_inflight_ingests < 0:
            raise ValueError("max_inflight_ingests must be non-negative (or None)")
        if quarantine_after is not None and quarantine_after <= 0:
            raise ValueError("quarantine_after must be positive (or None)")
        self.scheduler = scheduler
        self.registry: DeviceRegistry = scheduler.registry
        self.max_body_bytes = max_body_bytes
        self.max_inflight_ingests = max_inflight_ingests
        self.retry_after_s = retry_after_s
        self.quarantine_after = quarantine_after
        # The scheduler's re-entrant lock, shared so service requests and
        # owner-driven fleet rounds serialise against each other even when
        # the owner keeps advancing rounds while the server is live.
        self._lock = scheduler.lock
        # Backpressure state: in-flight ingest count gated by its own
        # condition (never the fleet lock — shedding must stay cheap even
        # while evaluations hold the scheduler busy).
        self._drain_cond = threading.Condition()
        self._inflight = 0
        self._draining = False
        # Abuse state, keyed by device id, guarded by the fleet lock.
        self._malformed: Dict[str, int] = {}
        self._quarantined: set[str] = set()

    # ------------------------------------------------------------- endpoints
    def register_device(self, payload: Dict[str, object]) -> Dict[str, object]:
        device_id = payload.get("device_id")
        if not isinstance(device_id, str) or not device_id:
            raise ServiceError(400, "device_id must be a non-empty string")
        if not _DEVICE_ID_RE.match(device_id):
            raise ServiceError(
                400,
                "device_id must be URL-safe (letters, digits, '.', '_', '~', '-')",
            )
        # Reject everything registry.register() would, before the
        # write-ahead append below: a journaled registration must replay.
        scenario = payload.get("scenario")
        if scenario is not None:
            if not isinstance(scenario, str):
                raise ServiceError(400, "scenario must be a catalogue label string")
            try:
                self.registry.catalog.get(scenario)
            except ValueError as exc:
                raise ServiceError(400, str(exc))
        seed = payload.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
        ):
            raise ServiceError(400, "seed must be a non-negative integer")
        with self._lock:
            if device_id in self.registry:
                raise ServiceError(409, f"device {device_id!r} already registered")
            # Write-ahead: journal the registration before applying it, so
            # a crash right after the reply can't lose the device (its
            # journaled ingests would otherwise error out of replay).
            journal = self.scheduler.journal
            if journal is not None:
                journal.append_device(device_id, scenario=scenario, seed=seed)
            try:
                device = self.registry.register(device_id, scenario=scenario, seed=seed)
            except ValueError as exc:
                raise ServiceError(400, str(exc))
            return device.snapshot()

    def ingest(self, payload: Dict[str, object]) -> Dict[str, object]:
        device_id = payload.get("device_id")
        if not isinstance(device_id, str) or not device_id:
            raise ServiceError(400, "device_id must be a non-empty string")
        raw = payload.get("bits")
        if not isinstance(raw, str) or not raw:
            raise ServiceError(400, "bits must be a non-empty string of 0/1 characters")
        seq = payload.get("seq")
        if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int)):
            raise ServiceError(400, "seq must be a non-negative integer")
        if isinstance(seq, int) and seq < 0:
            raise ServiceError(400, "seq must be a non-negative integer")
        try:
            device = self.registry.get(device_id)
        except KeyError as exc:
            raise ServiceError(404, str(exc))
        with self._lock:
            if device_id in self._quarantined:
                raise ServiceError(
                    403,
                    f"device {device_id!r} is quarantined after repeated "
                    "malformed ingests",
                )
        self._admit_ingest()
        try:
            try:
                # to_bits (via scheduler.ingest) owns the 0/1-string contract:
                # one validation path, whitespace tolerated like the library.
                # The scheduler locks only the health fold, not the engine
                # evaluation, so concurrent requests proceed meanwhile.  The
                # sequenced path journals write-ahead inside the scheduler.
                events = self.scheduler.ingest(device_id, raw, seq=seq)
            except DuplicateIngestError as exc:
                # Idempotent success: the chunk was already applied, so a
                # blind retry (client timeout, WAL replay, at-least-once
                # delivery) converges instead of erroring.
                with self._lock:
                    health = device.snapshot()
                return {
                    "device_id": device_id,
                    "duplicate": True,
                    "sequences": 0,
                    "verdicts": [],
                    "health": health,
                    "last_seq": exc.last_seq,
                }
            except IngestSequenceGapError as exc:
                raise ServiceError(409, str(exc))
            except ValueError as exc:
                self._count_malformed(device_id)
                raise ServiceError(400, str(exc))
        finally:
            self._release_ingest()
        with self._lock:
            self._malformed.pop(device_id, None)
            health = device.snapshot()
        response: Dict[str, object] = {
            "device_id": device_id,
            "sequences": len(events),
            "verdicts": [
                {
                    "sequence_index": event.sequence_index,
                    "passed": event.report.passed,
                    "failing_tests": list(event.report.failing_tests),
                    "state": event.state.value,
                }
                for event in events
            ],
            "health": health,
        }
        if seq is not None:
            response["last_seq"] = seq
        if self.scheduler.streaming:
            response["pending_bits"] = self.scheduler.pending_bits(device_id)
        return response

    # --------------------------------------------------------- backpressure
    def _admit_ingest(self) -> None:
        """Admit one ingest or shed it (429 at capacity, 503 while draining)."""
        with self._drain_cond:
            if self._draining:
                _INGEST_SHED.inc(reason="draining")
                raise ServiceError(
                    503, "service is draining", retry_after=self.retry_after_s
                )
            cap = self.max_inflight_ingests
            if cap is not None and self._inflight >= cap:
                _INGEST_SHED.inc(reason="backpressure")
                raise ServiceError(
                    429,
                    f"ingest capacity ({cap} in flight) exhausted; retry later",
                    retry_after=self.retry_after_s,
                )
            self._inflight += 1

    def _release_ingest(self) -> None:
        with self._drain_cond:
            self._inflight -= 1
            self._drain_cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting ingests and wait for in-flight ones to finish.

        The graceful-shutdown half of backpressure: new ingests are shed
        with 503 from the moment this is called, and the call returns once
        the last admitted ingest has folded (or ``timeout`` elapsed —
        returns False on a dirty drain).
        """
        with self._drain_cond:
            self._draining = True
            return self._drain_cond.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def _count_malformed(self, device_id: str) -> None:
        """Track consecutive malformed ingests; quarantine repeat offenders."""
        threshold = self.quarantine_after
        if threshold is None:
            return
        with self._lock:
            count = self._malformed.get(device_id, 0) + 1
            self._malformed[device_id] = count
            if count >= threshold and device_id not in self._quarantined:
                self._quarantined.add(device_id)
                _QUARANTINED.inc()
                logger.warning(
                    "quarantined device %s after %d consecutive malformed ingests",
                    device_id,
                    count,
                )

    def device_health(self, device_id: str) -> Dict[str, object]:
        with self._lock:
            try:
                return self.registry.get(device_id).snapshot()
            except KeyError as exc:
                raise ServiceError(404, str(exc))

    def fleet_summary(self) -> Dict[str, object]:
        # The aggregation snapshot happens under the scheduler's lock
        # (inside report()); rendering the JSON-ready dict does not.
        with self._lock:
            report = self.scheduler.report()
            health = self.registry.health_counts()
        return {
            "design": report.design,
            "n": report.n,
            "alpha": report.alpha,
            "streaming": report.streaming,
            "num_devices": report.num_devices,
            "rounds_completed": report.rounds_completed,
            "health": health,
            "mix": report.mix,
            "false_alarm_rate": report.false_alarm_rate(),
            "devices_per_s": report.devices_per_second(),
            "scenarios": [stats.to_dict() for stats in report.scenarios],
        }

    def metrics_text(self) -> str:
        """The process-wide metrics registry in Prometheus 0.0.4 text format."""
        return obs.registry().render_text()

    def metrics_snapshot(self) -> Dict[str, object]:
        """The process-wide metrics registry as a structured JSON snapshot."""
        return obs.registry().snapshot()

    # ------------------------------------------------------------- dispatch
    def handle_get(self, path: str) -> Tuple[int, Dict[str, object]]:
        # Drop any query string (?pretty=1 must not 404 a real endpoint)
        # and percent-decode the segments before routing.
        parts = [unquote(part) for part in urlsplit(path).path.split("/") if part]
        if parts == ["metrics.json"]:
            return 200, self.metrics_snapshot()
        if parts == ["fleet", "summary"]:
            return 200, self.fleet_summary()
        if len(parts) == 3 and parts[0] == "devices" and parts[2] == "health":
            return 200, self.device_health(parts[1])
        raise ServiceError(404, f"unknown path {path!r}")

    def handle_post(self, path: str, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        parts = [unquote(part) for part in urlsplit(path).path.split("/") if part]
        if parts == ["devices"]:
            return 201, self.register_device(payload)
        if parts == ["ingest"]:
            return 200, self.ingest(payload)
        raise ServiceError(404, f"unknown path {path!r}")


def _retry_headers(exc: ServiceError) -> Tuple[Tuple[str, str], ...]:
    """The ``Retry-After`` header of a load-shed response (else nothing)."""
    if exc.retry_after is None:
        return ()
    return (("Retry-After", f"{exc.retry_after:g}"),)


class _FleetRequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shell around :class:`FleetService`."""

    server_version = "repro-fleet/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> FleetService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ServiceError(400, "invalid Content-Length header")
        if length <= 0:
            raise ServiceError(400, "request body required")
        cap = self.service.max_body_bytes
        if length > cap:
            raise ServiceError(413, f"request body exceeds {cap} bytes")
        raw = self.rfile.read(length)
        if len(raw) < length:
            # The client died (or lied about Content-Length) mid-body; a
            # partial JSON document must not be half-parsed into a request.
            raise ServiceError(400, "truncated request body")
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise ServiceError(400, "JSON body must be an object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route = _route_label(self.path)
        with obs.span("service.request", method="GET", route=route) as request_span:
            extra_headers: Tuple[Tuple[str, str], ...] = ()
            if route == "/metrics":
                # The exposition endpoint is plain text, not JSON, and is
                # rendered outside the fleet lock (the registry has its own
                # per-metric locks).
                status = 200
                body = self.service.metrics_text().encode("utf-8")
                content_type = METRICS_CONTENT_TYPE
            else:
                try:
                    status, payload = self.service.handle_get(self.path)
                except ServiceError as exc:
                    status, payload = exc.status, {"error": exc.message}
                    extra_headers = _retry_headers(exc)
                except Exception:
                    # A bug must become one 500 response, never a dropped
                    # connection with no diagnostics.
                    logger.exception("unhandled error serving GET %s", self.path)
                    self.close_connection = True
                    status, payload = 500, {"error": "internal server error"}
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
        # Account before writing the response, so a client that reads its
        # reply and immediately scrapes /metrics always sees this request.
        self._account("GET", route, status, request_span.duration_s)
        self._send_body(status, body, content_type, extra_headers)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route = _route_label(self.path)
        with obs.span("service.request", method="POST", route=route) as request_span:
            extra_headers: Tuple[Tuple[str, str], ...] = ()
            try:
                status, payload = self.service.handle_post(self.path, self._read_json())
            except ServiceError as exc:
                # The body may not have been consumed (bad/oversized payload);
                # on a keep-alive connection the leftover bytes would be parsed
                # as the next request line, so drop the connection after
                # responding.
                self.close_connection = True
                status, payload = exc.status, {"error": exc.message}
                extra_headers = _retry_headers(exc)
            except Exception:
                logger.exception("unhandled error serving POST %s", self.path)
                self.close_connection = True
                status, payload = 500, {"error": "internal server error"}
        self._account("POST", route, status, request_span.duration_s)
        self._send_body(
            status, json.dumps(payload).encode("utf-8"), "application/json",
            extra_headers,
        )

    def _account(self, method: str, route: str, status: int, seconds: float) -> None:
        """Per-request telemetry: counters, latency histogram, one log line."""
        _REQUESTS.inc(method=method, route=route, status=str(status))
        _REQUEST_SECONDS.observe(seconds, method=method)
        logger.info(
            "%s %s -> %d in %.2f ms", method, self.path, status, seconds * 1000.0
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # http.server's own chatter (error lines etc.) goes to the logger at
        # DEBUG; the per-request INFO line above is the structured one.
        logger.debug(format, *args)


def serve(
    scheduler: FleetScheduler,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    max_body_bytes: int = MAX_BODY_BYTES,
    max_inflight_ingests: Optional[int] = None,
    retry_after_s: float = 1.0,
    quarantine_after: Optional[int] = None,
) -> ThreadingHTTPServer:
    """Build a ready-to-run HTTP server over ``scheduler``.

    Returns the bound (but not yet serving) server; call ``serve_forever()``
    — possibly in a thread — and ``shutdown()``/``server_close()`` when done.
    Bind to port 0 to let the OS pick a free port (``server.server_address``
    then reports the real one).  Connections are served on daemon threads,
    so a stalled client never prevents process exit.

    The keyword knobs are the degradation policy: ``max_body_bytes`` caps
    request payloads (413 beyond it), ``max_inflight_ingests`` bounds
    concurrent ingest evaluations (429 + ``Retry-After: retry_after_s``
    beyond it), and ``quarantine_after`` cuts off a device (403) after that
    many consecutive malformed ingests.
    """
    server = ThreadingHTTPServer((host, port), _FleetRequestHandler)
    server.daemon_threads = True
    server.service = FleetService(  # type: ignore[attr-defined]
        scheduler,
        max_body_bytes=max_body_bytes,
        max_inflight_ingests=max_inflight_ingests,
        retry_after_s=retry_after_s,
        quarantine_after=quarantine_after,
    )
    return server
