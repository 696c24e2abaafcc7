"""Stdlib HTTP client for the fleet service, with retries and backpressure.

The service front-end (:mod:`repro.fleet.service`) sheds load with 429 +
``Retry-After`` and sequences ingests with per-device ``seq`` numbers; this
client is the other half of those contracts.  :class:`FleetClient` keeps one
persistent ``http.client.HTTPConnection`` (no new dependencies) and retries
transient failures — connection errors, timeouts, 5xx, 408 and 429 — with
exponential backoff, honouring the server's ``Retry-After`` when it sends
one and otherwise jittering the delay from a *seeded* generator, so a swarm
of restarted clients never thunders back in lockstep yet every run of the
chaos harness is reproducible.

The connection is reused across requests (HTTP/1.1 keep-alive): no TCP
handshake and no server-side connection set-up per request.  It is closed
after a reply that says ``Connection: close`` and reopened inside the retry
loop after a connection error.  An idle connection the server has closed
meanwhile (its idle timeout, a restart) is noticed by a zero-timeout
readability check before reuse and replaced without spending a retry, so a
``retries=0`` client survives it.  A server at its connection cap answers
503 and closes before reading the request; when that makes the send fail,
the client still reads the waiting 503 and honours its ``Retry-After``.
A lock serialises requests on the one connection, so a client may be
shared across threads; :meth:`FleetClient.close` (or a ``with`` block)
releases the socket.

Because ingests carry ``seq``, a retry after an ambiguous failure (the
request may or may not have been applied before the connection died) is
safe: the server answers a replayed chunk with ``{"duplicate": true}``
instead of double-evaluating it, and the client surfaces that as success.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

import repro.obs as obs

__all__ = ["FleetClient", "FleetServiceError"]

#: HTTP statuses worth retrying: the request never ran (408/429/503) or the
#: server hit a transient internal condition (5xx).
_RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})

_RETRIES = obs.counter(
    "repro_fleet_client_retries_total",
    "Requests retried by the fleet client, by reason.",
    labels=("reason",),
)


class FleetServiceError(Exception):
    """A non-retryable (or retry-exhausted) error reply from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class FleetClient:
    """Convenience wrapper over the fleet service's JSON endpoints.

    Parameters
    ----------
    base_url:
        Service root, e.g. ``http://127.0.0.1:8080``.
    timeout_s:
        Socket timeout of the connect and of every read and write.
    retries:
        Transient failures retried per request before giving up.
    backoff_s / backoff_cap_s:
        Exponential backoff base and ceiling: attempt ``k`` sleeps
        ``min(cap, backoff_s * 2**k)`` scaled by a jitter factor in
        ``[0.5, 1.5)`` — unless the server sent ``Retry-After``, which
        wins.
    jitter_seed:
        Seed of the jitter generator (determinism rule: no unseeded
        randomness anywhere in the project, clients included).
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 10.0,
        retries: int = 5,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        jitter_seed: int = 0,
    ):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        scheme, sep, rest = base_url.partition("://")
        if not sep or scheme.lower() != "http":
            raise ValueError(f"base_url must be an http:// URL, got {base_url!r}")
        netloc, _, path = rest.partition("/")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = np.random.default_rng(jitter_seed)
        path = path.strip("/")
        self._prefix = f"/{path}" if path else ""
        # One connection for the client's lifetime: http.client reconnects
        # it on the next request after close(), so the object is never
        # replaced, and every use of it happens under the lock.
        self._lock = threading.Lock()
        self._conn = http.client.HTTPConnection(netloc, timeout=timeout_s)

    def close(self) -> None:
        """Close the connection (the next request would open a new one)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- endpoints
    def register_device(
        self,
        device_id: str,
        scenario: Optional[str] = None,
        seed: Optional[int] = None,
        exist_ok: bool = False,
    ) -> Dict[str, Any]:
        """Register a device; with ``exist_ok`` a 409 reads as success.

        ``exist_ok=True`` is the recovery idiom: a client resuming after a
        server restart re-registers blindly and proceeds either way.
        """
        payload: Dict[str, Any] = {"device_id": device_id}
        if scenario is not None:
            payload["scenario"] = scenario
        if seed is not None:
            payload["seed"] = seed
        try:
            return self._request("POST", "/devices", payload)
        except FleetServiceError as exc:
            if exist_ok and exc.status == 409:
                return self.device_health(device_id)
            raise

    def ingest(
        self, device_id: str, bits: str, seq: Optional[int] = None
    ) -> Dict[str, Any]:
        """Submit one chunk of bits; pass ``seq`` for idempotent retries."""
        payload: Dict[str, Any] = {"device_id": device_id, "bits": bits}
        if seq is not None:
            payload["seq"] = seq
        return self._request("POST", "/ingest", payload)

    def device_health(self, device_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/devices/{device_id}/health")

    def fleet_summary(self) -> Dict[str, Any]:
        return self._request("GET", "/fleet/summary")

    def metrics_text(self) -> str:
        body = self._request_raw("GET", "/metrics")
        return body.decode("utf-8")

    # -------------------------------------------------------------- plumbing
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = self._request_raw(method, path, payload)
        decoded = json.loads(body)
        if not isinstance(decoded, dict):
            raise FleetServiceError(502, "service returned a non-object JSON body")
        return decoded

    def _request_raw(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                status, reason, reply_headers, body = self._exchange(
                    method, self._prefix + path, data, headers
                )
            except (http.client.HTTPException, OSError) as exc:
                # Connection refused / reset / timed out: the server may be
                # mid-restart (the chaos harness guarantees it sometimes is).
                if attempt == self.retries:
                    raise FleetServiceError(503, f"service unreachable: {exc}")
                last_error = exc
                _RETRIES.inc(reason="connection")
                self._sleep(attempt, None)
                continue
            if 200 <= status < 300:
                return body
            detail = self._error_message(body, reason)
            if status not in _RETRYABLE_STATUSES or attempt == self.retries:
                raise FleetServiceError(status, detail)
            last_error = FleetServiceError(status, detail)
            _RETRIES.inc(reason=f"http_{status}")
            self._sleep(attempt, self._retry_after(reply_headers))
        raise FleetServiceError(503, f"service unreachable: {last_error}")

    def _exchange(
        self, method: str, path: str, data: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, str, http.client.HTTPMessage, bytes]:
        """One request/reply on the persistent connection.

        ``http.client`` drops the socket itself after a reply that will
        close; any failure mid-exchange closes it here, so the next attempt
        reconnects.
        """
        with self._lock:
            conn = self._conn
            if conn.sock is not None and _closed_by_peer(conn.sock):
                # The server closed the idle connection (idle timeout,
                # restart): reconnect now rather than fail the request.
                conn.close()
            try:
                try:
                    conn.request(method, path, body=data, headers=headers)
                except ConnectionError as exc:
                    # A server at its connection cap answers 503 and closes
                    # without reading the request, so the send can fail
                    # with that reply already waiting to be read.
                    reply = _reply_after_failed_send(conn, exc)
                else:
                    reply = conn.getresponse()
                body = reply.read()
            except BaseException:
                conn.close()
                raise
            return reply.status, reply.reason, reply.headers, body

    @staticmethod
    def _error_message(body: bytes, reason: str) -> str:
        try:
            decoded = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return reason
        if isinstance(decoded, dict) and isinstance(decoded.get("error"), str):
            return decoded["error"]
        return str(decoded)

    @staticmethod
    def _retry_after(headers: http.client.HTTPMessage) -> Optional[float]:
        raw = headers.get("Retry-After")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value >= 0 else None

    def _sleep(self, attempt: int, retry_after: Optional[float]) -> None:
        if retry_after is not None:
            delay = retry_after
        else:
            delay = min(self.backoff_cap_s, self.backoff_s * (2.0**attempt))
            delay *= 0.5 + float(self._rng.random())
        if delay > 0:
            time.sleep(delay)


def _reply_after_failed_send(
    conn: http.client.HTTPConnection, error: ConnectionError
) -> http.client.HTTPResponse:
    """The reply a server sent before it reset a request's send, else ``error``."""
    if conn.sock is None:  # the connect itself failed: nothing to read
        raise error
    try:
        return conn.getresponse()
    except (OSError, http.client.HTTPException):
        raise error from None


def _closed_by_peer(sock: socket.socket) -> bool:
    """Whether an idle keep-alive connection is unusable.

    Between replies nothing may arrive, so a readable socket means the
    server closed it (EOF) or broke the protocol; either way it must not
    carry the next request.  ``poll`` has no descriptor limit (``select``
    fails from fd 1024 on); a socket it cannot watch counts as unusable,
    since reconnecting is always safe.
    """
    poller = select.poll()
    try:
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    except OSError:
        return True
