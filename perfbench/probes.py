"""Timing wrappers installed around the package's public entry points.

:func:`install` replaces each target with a wrapper that records a span in a
:class:`~spans.Recorder`, and returns a function that puts the originals
back.  Module-level functions are replaced in every ``repro`` module that
imported them by name, so callers are timed whichever import they went
through.  Nothing under ``src/`` changes: the traced run is
the only one that pays for the wrappers.

Span names are the per-layer metric names' prefixes, taken from the modules
they time (``engine.run_batch``, ``fleet.scheduler.ingest``, ...).
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Callable, Dict, List, Tuple

from spans import Recorder

#: Span and counter names read back by the metric assembly in ``run.py``.
#: A per-row test call is ``engine.test.<id>``; a whole-batch call is
#: ``engine.test.<id>.batch``.  Span amounts carry bytes (pack, kernels, WAL,
#: snapshots, journal reads), applied records (replay) or refusals (service).
LOCK_WAIT = "fleet.scheduler.lock"
REPLAYED = "fleet.durability.replay.records"
BATCH_SUFFIX = ".batch"

_SERVICE_ROUTES = {"ingest": "ingest", "devices": "devices", "fleet": "summary"}


def _route(path: str) -> str:
    parts = [part for part in path.split("?")[0].split("/") if part]
    if len(parts) == 3 and parts[0] == "devices" and parts[2] == "health":
        return "health"
    return _SERVICE_ROUTES.get(parts[0], "other") if parts else "other"


class TimedLock:
    """The scheduler lock with every acquire timed as a ``lock.wait`` span."""

    def __init__(self, recorder: Recorder, inner):
        self._recorder = recorder
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        clock = self._recorder.clock
        start = clock()
        acquired = self._inner.acquire(blocking, timeout)
        self._recorder.leaf(LOCK_WAIT, start, clock())
        return acquired

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _timed(recorder: Recorder, name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap the entry points; returns the function that unwraps them."""
    # Every module that binds an entry point by name is loaded before the
    # patching, so none picks up a wrapper that outlives the uninstall.
    import repro.cli  # noqa: F401
    from repro.core.monitor import OnTheFlyMonitor
    from repro.engine import batch, packed
    from repro.engine.registry import RegisteredTest
    from repro.fleet import client, durability, registry, scheduler, service
    from repro.nist import common
    from repro.trng.source import EntropySource

    undo: List[Callable[[], None]] = []
    rec = recorder

    def set_attr(owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, old))

    def everywhere(original: Callable, wrapper: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    set_attr(module, attr, wrapper)

    # ---- module-level functions
    everywhere(batch.run_batch, _timed(rec, "engine.run_batch", batch.run_batch))
    everywhere(common.to_bits, _timed(rec, "nist.common.to_bits", common.to_bits))

    pack = packed.pack_matrix

    @functools.wraps(pack)
    def pack_matrix(matrix, *args, **kwargs):
        index = rec.begin("engine.packed.pack")
        try:
            return pack(matrix, *args, **kwargs)
        finally:
            rec.end(index, float(matrix.nbytes))

    everywhere(pack, pack_matrix)

    write = durability.write_snapshot

    @functools.wraps(write)
    def write_snapshot(*args, **kwargs):
        index = rec.begin("fleet.durability.snapshot_write")
        size = 0
        try:
            size = write(*args, **kwargs)
            return size
        finally:
            rec.end(index, float(size))

    everywhere(write, write_snapshot)
    everywhere(
        durability.read_snapshot,
        _timed(rec, "fleet.durability.snapshot_read", durability.read_snapshot),
    )

    read = durability.read_journal

    @functools.wraps(read)
    def read_journal(path, *args, **kwargs):
        index = rec.begin("fleet.durability.journal_read")
        try:
            return read(path, *args, **kwargs)
        finally:
            rec.end(index, float(os.path.getsize(path)))

    everywhere(read, read_journal)

    replay = durability.replay_records

    @functools.wraps(replay)
    def replay_records(scheduler_, records, stats=None):
        before = stats.applied if stats is not None else 0
        index = rec.begin("fleet.durability.replay")
        applied = 0
        try:
            result = replay(scheduler_, records, stats)
            applied = result.applied - before
            return result
        finally:
            rec.end(index, float(applied))
            rec.add(REPLAYED, float(len(records)))

    everywhere(replay, replay_records)
    everywhere(
        durability.recover_fleet,
        _timed(rec, "fleet.durability.recover", durability.recover_fleet),
    )

    # ---- methods
    set_attr(
        EntropySource, "generate_block",
        _timed(rec, "trng.generate", EntropySource.generate_block),
    )
    set_attr(
        OnTheFlyMonitor, "observe",
        _timed(rec, "core.monitor.observe", OnTheFlyMonitor.observe),
    )

    row_run = RegisteredTest.run
    batch_run = RegisteredTest.run_batch
    names: Dict[str, Tuple[str, str]] = {}

    def span_names(test_id: str) -> Tuple[str, str]:
        pair = names.get(test_id)
        if pair is None:
            pair = names[test_id] = ("engine.test." + test_id,
                                     "engine.test." + test_id + BATCH_SUFFIX)
        return pair

    def test_run(self, context, **params):
        index = rec.begin(span_names(self.id)[0])
        try:
            return row_run(self, context, **params)
        finally:
            rec.end(index, context.n / 8.0)

    def test_run_batch(self, batch_context, **params):
        index = rec.begin(span_names(self.id)[1])
        try:
            return batch_run(self, batch_context, **params)
        finally:
            rec.end(index, batch_context.num_sequences * batch_context.n / 8.0)

    set_attr(RegisteredTest, "run", test_run)
    set_attr(RegisteredTest, "run_batch", test_run_batch)

    fleet_scheduler = scheduler.FleetScheduler
    init = fleet_scheduler.__init__

    @functools.wraps(init)
    def scheduler_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.lock = TimedLock(rec, self.lock)

    set_attr(fleet_scheduler, "__init__", scheduler_init)
    set_attr(
        fleet_scheduler, "run_round",
        _timed(rec, "fleet.scheduler.run_round", fleet_scheduler.run_round),
    )
    set_attr(
        fleet_scheduler, "ingest",
        _timed(rec, "fleet.scheduler.ingest", fleet_scheduler.ingest),
    )
    set_attr(
        fleet_scheduler, "load_state",
        _timed(rec, "fleet.durability.snapshot_read", fleet_scheduler.load_state),
    )
    from_state = registry.DeviceRegistry.__dict__["from_state"].__func__
    set_attr(
        registry.DeviceRegistry, "from_state",
        classmethod(_timed(rec, "fleet.durability.snapshot_read", from_state)),
    )

    append = durability.IngestJournal._append

    @functools.wraps(append)
    def journal_append(self, record):
        size = os.path.getsize(self.path)
        index = rec.begin("fleet.durability.wal_append")
        try:
            append(self, record)
        finally:
            rec.end(index, float(os.path.getsize(self.path) - size))

    set_attr(durability.IngestJournal, "_append", journal_append)

    def handler(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(self, path, *args):
            index = rec.begin("fleet.service." + _route(path))
            refused = 0.0
            try:
                return func(self, path, *args)
            except service.ServiceError as exc:
                refused = 1.0 if exc.status in (429, 503) else 0.0
                raise
            finally:
                rec.end(index, refused)

        return wrapper

    set_attr(service.FleetService, "handle_get", handler(service.FleetService.handle_get))
    set_attr(service.FleetService, "handle_post", handler(service.FleetService.handle_post))
    http = service._FleetRequestHandler
    set_attr(http, "do_GET", _timed(rec, "fleet.service.http", http.do_GET))
    set_attr(http, "do_POST", _timed(rec, "fleet.service.http", http.do_POST))
    for method in ("ingest", "device_health", "fleet_summary"):
        set_attr(
            client.FleetClient, method,
            _timed(rec, "fleet.client.request", getattr(client.FleetClient, method)),
        )

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


def time_lock(recorder: Recorder, scheduler) -> Callable[[], None]:
    """Time the lock of an already built scheduler; returns the undo."""
    inner = scheduler.lock
    scheduler.lock = TimedLock(recorder, inner)

    def restore() -> None:
        scheduler.lock = inner

    return restore
