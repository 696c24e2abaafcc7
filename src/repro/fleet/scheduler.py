"""Fleet scheduler: the whole fleet through the batch engine, round by round.

A naive port of :class:`~repro.core.monitor.OnTheFlyMonitor` to a fleet runs
one platform evaluation per device per round — thousands of per-sequence
hardware-model passes, none of which share any work.  The scheduler
multiplexes instead: each round it pulls **one** n-bit sequence per device,
stacks the fleet into a single ``(num_devices, n)`` uint8 matrix and pushes
it through :func:`repro.engine.batch.run_batch`, whose
:class:`~repro.engine.context.BatchContext` computes the shared statistics
of the design's test subset in single vectorised 2-D passes over the whole
fleet.  The per-device verdicts then fold back into each device's
health-state machine exactly as per-device monitoring would.  Every round
and every ingest is evaluated in this process: the round matrix is packed
into 64-bit words once and handed to the engine as one batch.

``benchmarks/bench_fleet.py`` pins the speedup: the multiplexed round must
stay >= 5x faster than the naive per-device loop at a 512-device fleet.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.core.monitor import MonitorEvent
from repro.engine.batch import EngineReport, run_batch
from repro.engine.packed import PackedMatrix, pack_matrix
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.engine.streaming import StreamingBatchContext, StreamingContext
from repro.fleet.registry import Device, DeviceRegistry
from repro.fleet.report import FleetReport, FleetRound, build_report
from repro.nist.common import BitsLike, to_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (durability imports us)
    from repro.fleet.durability import IngestJournal

__all__ = [
    "DuplicateIngestError",
    "FleetScheduler",
    "FleetVerdict",
    "IngestSequenceError",
    "IngestSequenceGapError",
]

#: Canonical registry id -> NIST test number (for verdict attribution).
_ID_TO_NIST_NUMBER = {test_id: number for number, test_id in NIST_NUMBER_TO_ID.items()}

_ROUND_SECONDS = obs.histogram(
    "repro_fleet_round_latency_seconds",
    "Wall time of one multiplexed fleet round (generate + evaluate + fold).",
)
_DEVICES_PER_S = obs.gauge(
    "repro_fleet_devices_per_second",
    "Device throughput of the most recent fleet round.",
)
_INGEST_BITS = obs.counter(
    "repro_fleet_ingest_bits_total",
    "Raw bits submitted through FleetScheduler.ingest (the service path).",
)
_HEALTH_TRANSITIONS = obs.counter(
    "repro_fleet_health_transitions_total",
    "Device health-state machine transitions, by (from, to) state pair.",
    labels=("from_state", "to_state"),
)
_INGEST_REJECTED = obs.counter(
    "repro_fleet_ingest_rejected_total",
    "Idempotency rejections on the sequenced ingest path, by reason.",
    labels=("reason",),
)


class IngestSequenceError(ValueError):
    """A sequenced ingest was rejected by the per-device monotonic contract.

    Sequenced ingest (``FleetScheduler.ingest(..., seq=...)``) requires each
    device's sequence numbers to arrive strictly in order (``last + 1``);
    this is what makes ingest idempotent, so clients can retry and the
    durability layer can replay its write-ahead journal without double-
    applying any chunk.
    """

    def __init__(self, device_id: str, seq: int, last_seq: int, message: str):
        super().__init__(message)
        self.device_id = device_id
        self.seq = seq
        self.last_seq = last_seq


class DuplicateIngestError(IngestSequenceError):
    """The chunk was already applied (``seq <= last``); safe to ignore."""

    def __init__(self, device_id: str, seq: int, last_seq: int):
        super().__init__(
            device_id,
            seq,
            last_seq,
            f"device {device_id!r} already applied ingest seq {seq} "
            f"(last applied seq is {last_seq})",
        )


class IngestSequenceGapError(IngestSequenceError):
    """The chunk arrived out of order (``seq > last + 1``); resend in order."""

    def __init__(self, device_id: str, seq: int, last_seq: int):
        super().__init__(
            device_id,
            seq,
            last_seq,
            f"device {device_id!r} expected ingest seq {last_seq + 1}, "
            f"got {seq} (chunks must arrive in order)",
        )


def _count_transitions(
    transitions: Dict[Tuple[str, str], int], before: str, after: str
) -> None:
    """Accumulate one health transition locally (one inc per pair later)."""
    key = (before, after)
    transitions[key] = transitions.get(key, 0) + 1


def _flush_transitions(transitions: Dict[Tuple[str, str], int]) -> None:
    """One counter inc per observed (from, to) pair, not per device."""
    for (before, after), count in transitions.items():
        _HEALTH_TRANSITIONS.inc(count, from_state=before, to_state=after)


@dataclass(frozen=True)
class FleetVerdict:
    """Reduced per-sequence verdict fed into a device's health machine.

    Duck-typed to what :meth:`~repro.core.monitor.OnTheFlyMonitor.observe`
    reads off a :class:`~repro.core.results.PlatformReport` — ``passed`` and
    ``failing_tests`` (NIST numbers) — plus the engine's error strings, and
    nothing heavier, so verdicts cross process boundaries cheaply.
    """

    passed: bool
    failing_tests: Tuple[int, ...]
    errors: Tuple[str, ...] = ()


def _reduce_report(report: EngineReport, alpha: float) -> FleetVerdict:
    """Collapse one engine report to the verdict the health machine needs."""
    failing = sorted(
        _ID_TO_NIST_NUMBER.get(test_id, -1) for test_id in report.failing_tests(alpha)
    )
    return FleetVerdict(
        passed=report.passed(alpha) and not report.errors,
        failing_tests=tuple(failing),
        errors=tuple(sorted(report.errors.values())),
    )


@dataclass
class _IngestStream:
    """Per-device ingest state (the service path's serialisation point).

    ``lock`` serialises ingests for one device (chunk order defines the
    stream, and the monotonic ``seq`` contract needs a total per-device
    order) without ever holding the fleet lock across an engine
    evaluation.  In streaming mode ``context`` is the device's packed ring
    and ``pending`` counts the bits of the next, not yet complete, n-bit
    sequence sitting in it; in matrix mode both stay empty and the entry
    only carries the lock and the idempotency high-water mark
    ``last_seq``.
    """

    lock: threading.Lock
    context: Optional[StreamingContext] = None
    pending: int = 0
    last_seq: Optional[int] = None


class FleetScheduler:
    """Advances a whole device fleet in multiplexed engine rounds.

    Parameters
    ----------
    registry:
        The populated :class:`~repro.fleet.registry.DeviceRegistry`; the
        scheduler evaluates with the registry's shared design point (test
        subset, sequence length) and alpha.
    streaming:
        Keep per-device streaming state instead of rebuilding matrices.
        Rounds push the fleet's new words into one long-lived
        :class:`~repro.engine.streaming.StreamingBatchContext` (one packed
        ring per device) and evaluate the preseeded rolled window; ingest
        keeps a per-device :class:`~repro.engine.streaming.StreamingContext`
        and accepts *arbitrary* chunk sizes — partial sequences pend in the
        device's ring (see :meth:`pending_bits`) instead of being rejected.
        Verdicts are bit-identical to the matrix path.
    """

    def __init__(self, registry: DeviceRegistry, streaming: bool = False):
        self.registry = registry
        self.streaming = bool(streaming)
        # Round-path fleet ring (built on first streaming round, rebuilt only
        # when the device count changes) and per-device ingest streams.
        self._round_stream: Optional[StreamingBatchContext] = None
        self._ingest_streams: Dict[str, "_IngestStream"] = {}
        # Guards the ingest-entry dict alone (add-only membership), so
        # state_dict() can enumerate entries *before* taking their locks —
        # the entry-locks-then-fleet-lock order every ingest follows.
        self._streams_lock = threading.Lock()
        #: Write-ahead journal attached by the durability layer
        #: (:class:`repro.fleet.durability.DurableFleet`); when set,
        #: completed rounds append replay markers to it.  ``None`` while no
        #: durability spool is configured (and during journal replay, so
        #: replayed rounds are not re-journaled).
        self.journal: Optional["IngestJournal"] = None
        self.rounds: List[FleetRound] = []
        #: Serialises fleet mutations (rounds, ingest, registration) between
        #: the scheduler's owner and the HTTP service threads; re-entrant so
        #: the service can call locked scheduler methods under it.
        self.lock = threading.RLock()

    # ------------------------------------------------------------- evaluation
    def _verdicts(self, reports: List[EngineReport]) -> List[FleetVerdict]:
        """Reduce engine reports to per-device verdicts."""
        alpha = self.registry.alpha
        return [_reduce_report(report, alpha) for report in reports]

    def evaluate_matrix(
        self, matrix: Union[np.ndarray, PackedMatrix]
    ) -> List[FleetVerdict]:
        """One fleet matrix through the engine.

        ``matrix`` is a ``(devices, n)`` uint8 matrix or a prepacked
        :class:`~repro.engine.packed.PackedMatrix`; a uint8 input is packed
        once here, so the engine's kernels read the 64-bit words instead of
        re-deriving them.
        """
        if not isinstance(matrix, PackedMatrix):
            matrix = pack_matrix(matrix, keep_source=True)
        return self._verdicts(run_batch(matrix, tests=list(self.registry.tests)))

    def _round_stream_verdicts(self, matrix: np.ndarray) -> List[FleetVerdict]:
        """Streaming round path: push new words, evaluate the rolled window.

        The fleet ring lives across rounds (rebuilt only when the device
        count changes); each round is one vectorised push of the fleet's
        new words, and the engine runs on the preseeded window context —
        the round matrix is never re-packed or re-scanned.
        """
        rows, n = matrix.shape
        with self.lock:
            if self._round_stream is None or self._round_stream.num_rows != rows:
                self._round_stream = StreamingBatchContext(rows, n)
            stream = self._round_stream
        stream.push(matrix)
        return self._verdicts(
            run_batch(stream.window_context(), tests=list(self.registry.tests))
        )

    # ------------------------------------------------------------- rounds
    def run_round(self) -> FleetRound:
        """Advance every simulated device by one sequence.

        Pulls one n-bit block per device (continuing each device's own
        stream — staged attacks and aging trajectories unfold across
        rounds), evaluates the stacked fleet matrix through the engine and
        folds each verdict into its device's health machine.  In
        ``streaming`` mode the fleet matrix is pushed into the long-lived
        fleet ring and the rolled window is evaluated instead (identical
        verdicts).
        """
        with self.lock:
            devices = self.registry.simulated_devices()
            if not devices:
                raise ValueError(
                    "no simulated devices registered; populate() the fleet first"
                )
            n = self.registry.n
            # The root span is also the round timer: its duration feeds both
            # FleetRound.elapsed_s and the latency histogram (spans always
            # measure, even with recording disabled — see repro.obs.tracing).
            with obs.trace(
                "fleet.run_round", devices=len(devices), streaming=self.streaming
            ) as root:
                with obs.span("generate"):
                    matrix = np.empty((len(devices), n), dtype=np.uint8)
                    for row, device in enumerate(devices):
                        matrix[row] = device.source.generate_block(n)
                with obs.span("evaluate"):
                    if self.streaming:
                        verdicts = self._round_stream_verdicts(matrix)
                    else:
                        verdicts = self.evaluate_matrix(matrix)
                with obs.span("fold"):
                    failing = 0
                    transitions: Dict[Tuple[str, str], int] = {}
                    for device, verdict in zip(devices, verdicts):
                        before = device.monitor.state.value
                        event = device.monitor.observe(verdict)
                        _count_transitions(transitions, before, event.state.value)
                        if not event.report.passed:
                            failing += 1
                    _flush_transitions(transitions)
            elapsed = root.duration_s
            _ROUND_SECONDS.observe(elapsed)
            _DEVICES_PER_S.set(len(devices) / elapsed if elapsed > 0 else 0.0)
            fleet_round = FleetRound(
                index=len(self.rounds),
                health=self.registry.health_counts(),
                devices=len(devices),
                failing_sequences=failing,
                elapsed_s=elapsed,
            )
            self.rounds.append(fleet_round)
            # Write-behind round marker: journaled only after the round's
            # effects are complete, so a crash mid-round replays nothing.
            # The index makes replay idempotent — a marker whose round is
            # already inside the restored snapshot is skipped.
            journal = self.journal
            if journal is not None:
                journal.append_round(fleet_round.index)
            return fleet_round

    def run(self, num_rounds: int) -> FleetReport:
        """Run ``num_rounds`` fleet rounds and build the aggregate report."""
        if num_rounds < 1:
            raise ValueError("num_rounds must be positive")
        for _ in range(num_rounds):
            self.run_round()
        return self.report()

    # ------------------------------------------------------------- ingest
    def ingest(
        self, device_id: str, bits: BitsLike, *, seq: Optional[int] = None
    ) -> List[MonitorEvent]:
        """Evaluate raw bits for one registered device (the service path).

        ``bits`` is anything :func:`~repro.nist.common.to_bits` accepts.  In
        the default matrix mode it must hold a positive multiple of the
        design's sequence length; each n-bit sequence is evaluated through
        the engine and folded into the device's health machine in order.
        In ``streaming`` mode *any* positive number of bits is accepted:
        chunks append to the device's packed ring, a window is evaluated
        whenever n new bits have accumulated, and a trailing partial
        sequence simply pends in the ring (:meth:`pending_bits`) until the
        next chunk completes it — the device's stream is never rebuilt.

        ``seq`` opts the chunk into the idempotent sequenced contract: per
        device, sequence numbers must arrive strictly in order.  A replayed
        or retried chunk (``seq <= last``) raises
        :class:`DuplicateIngestError` *without* re-applying anything, an
        out-of-order chunk (``seq > last + 1``) raises
        :class:`IngestSequenceGapError` without applying it, and the
        sequence number commits only after the chunk's effects are fully
        folded — which is what lets clients retry blindly and the
        durability layer replay its write-ahead journal after a crash.

        Only the health-machine fold takes the fleet lock: the engine
        evaluation itself is pure compute over the submitted bits (the
        design's test subset and alpha are immutable registry config), so a
        large ingest never stalls concurrent service reads or scheduler
        rounds while the statistics run.  Chunks for one device serialise
        on that device's own entry lock instead (chunk order defines the
        stream and the seq order).
        """
        device = self.registry.get(device_id)
        arr = to_bits(bits)
        _INGEST_BITS.inc(arr.size)
        n = self.registry.n
        entry = self._ingest_entry(device_id)
        with entry.lock:
            self._check_seq(entry, device_id, seq)
            # Write-ahead: journal the accepted chunk before applying it,
            # inside the entry lock so per-device journal order matches
            # apply order (replay depends on that for the seq contract).
            # During recovery replay the journal is still detached, so
            # replayed chunks are not re-journaled.
            journal = self.journal
            if journal is not None:
                journal.append_ingest(device_id, arr, seq=seq)
            verdicts: List[FleetVerdict]
            if self.streaming:
                if arr.size == 0:
                    raise ValueError("streaming ingest needs at least one bit")
                context = entry.context
                assert context is not None  # streaming entries always carry a ring
                verdicts = []
                offset = 0
                while offset < arr.size:
                    take = min(n - entry.pending, arr.size - offset)
                    context.push(arr[offset : offset + take])
                    offset += take
                    entry.pending += take
                    if entry.pending == n:
                        reports = run_batch(
                            context.window_context(),
                            tests=list(self.registry.tests),
                        )
                        verdicts.extend(self._verdicts(reports))
                        entry.pending = 0
            else:
                if arr.size == 0 or arr.size % n != 0:
                    raise ValueError(
                        f"ingest needs a positive multiple of {n} bits "
                        f"(the {self.registry.design_name} sequence length), "
                        f"got {arr.size}"
                    )
                verdicts = self.evaluate_matrix(arr.reshape(-1, n))
            with self.lock:
                events = self._observe_all(device, verdicts)
            # Commit the idempotency high-water mark only after the fold:
            # a chunk that failed validation or evaluation stays unapplied
            # and must be resendable under the same seq.
            if seq is not None:
                entry.last_seq = seq
            return events

    @staticmethod
    def _check_seq(
        entry: _IngestStream, device_id: str, seq: Optional[int]
    ) -> None:
        """Enforce the strictly-in-order per-device seq contract (if opted in)."""
        if seq is None:
            return
        if seq < 0:
            raise ValueError("ingest seq must be non-negative")
        last = entry.last_seq
        if last is None:
            return
        if seq <= last:
            _INGEST_REJECTED.inc(reason="duplicate")
            raise DuplicateIngestError(device_id, seq, last)
        if seq != last + 1:
            _INGEST_REJECTED.inc(reason="gap")
            raise IngestSequenceGapError(device_id, seq, last)

    def last_ingest_seq(self, device_id: str) -> Optional[int]:
        """The device's last applied sequenced-ingest number (None if none)."""
        self.registry.get(device_id)
        with self._streams_lock:
            entry = self._ingest_streams.get(device_id)
        if entry is None:
            return None
        with entry.lock:
            return entry.last_seq

    def _observe_all(
        self, device: Device, verdicts: List[FleetVerdict]
    ) -> List[MonitorEvent]:
        """Fold ingest verdicts into one device's health machine, counted.

        Callers hold the fleet lock.  Transitions accumulate locally and
        flush as one counter inc per observed (from, to) pair.
        """
        events: List[MonitorEvent] = []
        transitions: Dict[Tuple[str, str], int] = {}
        for verdict in verdicts:
            before = device.monitor.state.value
            event = device.monitor.observe(verdict)
            _count_transitions(transitions, before, event.state.value)
            events.append(event)
        _flush_transitions(transitions)
        return events

    def _ingest_entry(self, device_id: str) -> _IngestStream:
        """The device's ingest entry, created on first use (add-only)."""
        with self._streams_lock:
            entry = self._ingest_streams.get(device_id)
            if entry is None:
                entry = _IngestStream(
                    lock=threading.Lock(),
                    context=(
                        StreamingContext(self.registry.n) if self.streaming else None
                    ),
                )
                self._ingest_streams[device_id] = entry
            return entry

    def pending_bits(self, device_id: str) -> int:
        """Bits of the device's next sequence pending in its ingest ring.

        Always 0 outside streaming mode (partial sequences are rejected
        there) and for devices that have not streamed yet.
        """
        self.registry.get(device_id)
        with self._streams_lock:
            entry = self._ingest_streams.get(device_id)
        if entry is None:
            return 0
        with entry.lock:
            return entry.pending

    # ------------------------------------------------------------- state dict
    def state_dict(self) -> Dict[str, Any]:
        """The whole fleet's durable state as plain values.

        Covers the registry's device specs and health machines (sources
        pickled with their RNG state — see
        :meth:`~repro.fleet.registry.DeviceRegistry.state_dict` for the
        trust caveat), the round history, the round-path fleet ring and every device's ingest entry (ring,
        pending bits, idempotency high-water mark).

        The capture is crash-consistent: locks are taken in the same order
        every ingest uses (device entry locks first, then the fleet lock),
        so any concurrent ingest either commits *all* its effects before
        the capture or contributes none of them — exactly the property the
        write-ahead journal replay relies on.
        """
        while True:
            with self._streams_lock:
                entries = sorted(self._ingest_streams.items())
            for _, entry in entries:
                entry.lock.acquire()
            self.lock.acquire()
            with self._streams_lock:
                if len(self._ingest_streams) == len(entries):
                    break
            # A device ingested for the first time mid-capture; retry so
            # its entry is held too (entry creation is add-only).
            self.lock.release()
            for _, entry in entries:
                entry.lock.release()
        try:
            streams: Dict[str, Any] = {}
            for device_id, entry in entries:
                streams[device_id] = {
                    "pending": entry.pending,
                    "last_seq": entry.last_seq,
                    "context": (
                        None if entry.context is None else entry.context.state_dict()
                    ),
                }
            return {
                "version": 1,
                "streaming": self.streaming,
                "registry": self.registry.state_dict(),
                "rounds": [fleet_round.to_dict() for fleet_round in self.rounds],
                "round_stream": (
                    None
                    if self._round_stream is None
                    else self._round_stream.state_dict()
                ),
                "ingest_streams": streams,
            }
        finally:
            self.lock.release()
            for _, entry in entries:
                entry.lock.release()

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture into this scheduler.

        The streaming mode must match the capture (it shapes the per-device
        state), and the registry configuration is validated by
        :meth:`~repro.fleet.registry.DeviceRegistry.load_state`.  After the
        restore, subsequent rounds and sequenced ingests are bit-identical
        to the uninterrupted run.  Captures that still carry the retired
        backend and execution-path keys load unchanged: both backends
        produced bit-identical statistics, so those keys are ignored.
        """
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported fleet state version {state.get('version')!r}"
            )
        if state["streaming"] != self.streaming:
            raise ValueError(
                f"fleet state mismatch: streaming is {state['streaming']!r}, "
                f"this scheduler has {self.streaming!r}"
            )
        with self.lock:
            self.registry.load_state(state["registry"])
            self.rounds = [
                FleetRound.from_dict(entry) for entry in state["rounds"]
            ]
            round_stream = state["round_stream"]
            self._round_stream = (
                None
                if round_stream is None
                else StreamingBatchContext.from_state(round_stream)
            )
        with self._streams_lock:
            self._ingest_streams.clear()
            for device_id, spec in state["ingest_streams"].items():
                context_state = spec["context"]
                self._ingest_streams[device_id] = _IngestStream(
                    lock=threading.Lock(),
                    context=(
                        None
                        if context_state is None
                        else StreamingContext.from_state(context_state)
                    ),
                    pending=int(spec["pending"]),
                    last_seq=spec["last_seq"],
                )

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """End the scheduler's lifetime (also the ``with`` block exit).

        Evaluation runs in this process and holds no external resources,
        so there is nothing to release; owners (the CLI, the service, the
        benchmarks) still close every scheduler they scope.
        """

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- reporting
    def report(self) -> FleetReport:
        """Aggregate the fleet's current state into a :class:`FleetReport`."""
        with self.lock:
            return build_report(self.registry, self.rounds, streaming=self.streaming)
