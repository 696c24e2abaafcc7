"""The benchmark's four workloads, each driven through public entry points.

Every workload has the same shape:

* ``setup(seed)`` builds the inputs and the system under test (timed by the
  harness as ``setup_s``, ``setups`` times per run: more often where one
  set-up is short);
* ``measure(state, seconds, gauge, recorder)`` runs the closed loop for the
  given wall time, ticking the host gauge between operations, and returns a
  :class:`Window` of operation logs;
* ``verify(state, window)`` checks outputs against an independent
  reference after the window and marks every wrong operation failed;
* ``properties(state, window)`` reports the input shares a
  repetition-dependent optimisation would rely on;
* ``close(state)`` releases processes and files.

With a recorder (the traced run) each timed operation runs inside a
``bench.op`` root span, so per-layer self times can be summed per operation.
Entry points are called through their modules (``engine_batch.run_batch``)
so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import probes
from host import HostGauge
from spans import OpLog, Recorder

import repro.nist as nist
from repro.campaign.scenarios import DEFAULT_CATALOG
from repro.core.configs import get_design
from repro.engine import batch as engine_batch
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler, durability
from repro.fleet.client import FleetClient, FleetServiceError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Scalar reference implementation per NIST test number (the oracles).
ORACLES = {
    1: nist.frequency_test,
    2: nist.block_frequency_test,
    3: nist.runs_test,
    4: nist.longest_run_test,
    7: nist.non_overlapping_template_test,
    8: nist.overlapping_template_test,
    11: nist.serial_test,
    12: nist.approximate_entropy_test,
    13: nist.cumulative_sums_test,
}

ALPHA = 0.01
HEALTHY = "healthy-ideal"
BIASED = "biased-0.60"


@dataclass
class Window:
    """What one measuring window produced."""

    ops: OpLog
    wall_s: float
    #: Bits that reached a verdict in completed operations.
    bits: int = 0
    #: Secondary operation kinds (the service's health and summary reads).
    reads: Optional[OpLog] = None
    #: (gauge interval, seconds) of each slice in which concurrent clients
    #: ran; empty for one-thread loops, whose work time is their ops' time.
    slices: List[Tuple[int, float]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


def _op_span(recorder: Optional[Recorder]):
    return recorder.span("bench.op") if recorder is not None else nullcontext()


def _row_sources(rng: np.random.Generator, rows: int, n: int) -> List[Any]:
    """One seeded source per row; one row in eight is biased."""
    biased = set(rng.choice(rows, rows // 8, replace=False).tolist())
    return [
        DEFAULT_CATALOG.get(BIASED if row in biased else HEALTHY).build(
            int(rng.integers(2**31)), n
        )
        for row in range(rows)
    ]


def _oracle_verdict(bits: np.ndarray, tests) -> Tuple[bool, Tuple[int, ...], bool]:
    """(passed, failing test numbers, any error) from the scalar references."""
    failing = []
    errored = False
    for number in tests:
        try:
            result = ORACLES[number](bits)
        except ValueError:
            errored = True
            continue
        if not result.passed(ALPHA):
            failing.append(number)
    return (not failing and not errored), tuple(sorted(failing)), errored


def batch_properties(batches: List[list]) -> Dict[str, float]:
    """Input shares over engine report batches.

    Per test: distinct primary p-values / rows, averaged over batches (how
    much a per-batch decision memo could save).  Plus the share of rows
    with at least one failing test.
    """
    distinct: Dict[str, List[float]] = {}
    rows = failing = 0
    for reports in batches:
        rows += len(reports)
        failing += sum(1 for report in reports if not report.passed(ALPHA) or report.errors)
        for test_id in reports[0].results:
            values = {report.results[test_id].p_value for report in reports
                      if test_id in report.results}
            distinct.setdefault(test_id, []).append(len(values) / len(reports))
    out = {f"input.{test_id}.distinct_p_share": float(np.mean(shares))
           for test_id, shares in distinct.items()}
    out["input.failing_row_share"] = failing / rows if rows else 0.0
    return out


#: Scratch space inside the checkout (spools, server logs, server traces).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def _work_dir(name: str) -> str:
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


class Workload:
    """Defaults shared by the workloads that run in the benchmark's process."""

    name = ""
    #: Prefix of the workload's own latency names (``batch_p50_ms``, ...).
    op_name = ""
    #: False when the system under test is a subprocess.
    in_process = True
    setups = 5

    def instrument(self, state, recorder: Recorder):
        """Extra timing for objects built before the wrappers; returns the undo."""
        return lambda: None

    def peak_rss_mb(self, state) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
class EngineBatch(Workload):
    """``run_batch`` on fresh 64x65536-bit matrices, all nine HW tests."""

    name = "engine_n65536_high"
    op_name = "batch"
    design = get_design("n65536_high")
    rows = 64
    #: Sampled rows checked against the scalar oracles (each costs ~0.4 s).
    checks = 4

    def setup(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng([seed, 1])
        state = {"rng": rng, "sources": _row_sources(rng, self.rows, self.design.n)}
        state["matrix"] = self._next_matrix(state)
        engine_batch.run_batch(state["matrix"], tests=list(self.design.tests))
        state["matrix"] = self._next_matrix(state)
        return state

    def _next_matrix(self, state) -> np.ndarray:
        return np.stack([source.generate_block(self.design.n) for source in state["sources"]])

    def measure(self, state, seconds: float, gauge: HostGauge,
                recorder: Optional[Recorder] = None) -> Window:
        ops = OpLog()
        tests = list(self.design.tests)
        samples = []
        batches = []
        start = time.perf_counter()
        gauge.tick()
        while time.perf_counter() - start < seconds:
            matrix = state["matrix"]
            interval = len(gauge.times) - 1
            try:
                with _op_span(recorder):
                    t0 = time.perf_counter()
                    reports = engine_batch.run_batch(matrix, tests=tests)
                    elapsed = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - a raising batch is a failed operation
                ops.fail(interval)
            else:
                ops.ok(elapsed, interval)
                index = ops.attempted - 1
                if any(report.errors for report in reports):
                    ops.mark_failed(index)
                if index % 5 == 0 and len(samples) < self.checks:
                    row = int(state["rng"].integers(self.rows))
                    samples.append((index, matrix[row].copy(), reports[row]))
                if len(batches) < 8:
                    batches.append(reports)
            state["matrix"] = self._next_matrix(state)
            gauge.tick()
        wall = time.perf_counter() - start
        return Window(ops, wall, bits=ops.completed * self.rows * self.design.n,
                      extra={"samples": samples, "batches": batches})

    def verify(self, state, window: Window) -> int:
        mismatches = 0
        for index, bits, report in window.extra["samples"]:
            for number in self.design.tests:
                expected = ORACLES[number](bits)
                got = report.results[NIST_NUMBER_TO_ID[number]]
                if expected.p_values != got.p_values or expected.p_value != got.p_value:
                    mismatches += 1
                    window.ops.mark_failed(index)
        return mismatches

    def properties(self, state, window: Window) -> Dict[str, float]:
        return batch_properties(window.extra["batches"])


# ---------------------------------------------------------------------------
class FleetRound(Workload):
    """``FleetScheduler.run_round`` on 1024 simulated devices (n128_medium)."""

    name = "fleet_round_n128"
    op_name = "round"
    design = get_design("n128_medium")
    devices = 1024
    #: Devices whose every verdict is checked against a control fleet.
    sampled = 32

    def _fleet(self, seed: int) -> FleetScheduler:
        registry = DeviceRegistry(self.design.name)
        registry.populate(self.devices, FleetMix.healthy_with_threats(), seed=seed)
        return FleetScheduler(registry)

    def setup(self, seed: int) -> Dict[str, Any]:
        fleet_seed = int(np.random.default_rng([seed, 2]).integers(2**31))
        scheduler = self._fleet(fleet_seed)
        control = self._fleet(fleet_seed)
        ids = scheduler.registry.device_ids()
        rng = np.random.default_rng([seed, 3])
        sampled = sorted(rng.choice(len(ids), self.sampled, replace=False).tolist())
        sampled_ids = [ids[i] for i in sampled]
        scheduler.run_round()
        # Only the sampled devices' twin sources are kept: a whole second
        # fleet on the heap would slow the measured rounds' garbage collection.
        twins = {device_id: control.registry.get(device_id).source for device_id in sampled_ids}
        control.close()
        for source in twins.values():
            source.generate_block(self.design.n)
        return {"scheduler": scheduler, "twins": twins, "fleet_seed": fleet_seed}

    def measure(self, state, seconds: float, gauge: HostGauge,
                recorder: Optional[Recorder] = None) -> Window:
        ops = OpLog()
        scheduler = state["scheduler"]
        registry = scheduler.registry
        n = self.design.n
        observed = []
        start = time.perf_counter()
        gauge.tick()
        while time.perf_counter() - start < seconds:
            interval = len(gauge.times) - 1
            try:
                with _op_span(recorder):
                    t0 = time.perf_counter()
                    scheduler.run_round()
                    elapsed = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - a raising round is a failed operation
                ops.fail(interval)
            else:
                ops.ok(elapsed, interval)
                index = ops.attempted - 1
                for device_id, twin in state["twins"].items():
                    verdict = registry.get(device_id).monitor.history[-1].report
                    observed.append((index, twin.generate_block(n), verdict))
            gauge.tick()
        wall = time.perf_counter() - start
        return Window(ops, wall, bits=ops.completed * self.devices * n,
                      extra={"observed": observed})

    def verify(self, state, window: Window) -> int:
        mismatches = 0
        for index, bits, verdict in window.extra["observed"]:
            passed, failing, errored = _oracle_verdict(bits, self.design.tests)
            if (passed, failing, errored) != (
                verdict.passed, tuple(verdict.failing_tests), bool(verdict.errors)
            ):
                mismatches += 1
                window.ops.mark_failed(index)
        return mismatches

    def properties(self, state, window: Window) -> Dict[str, float]:
        # Two rounds of a fresh, identically seeded fleet, through the engine.
        fleet = self._fleet(state["fleet_seed"])
        batches = []
        for _ in range(2):
            matrix = np.stack([device.source.generate_block(self.design.n)
                               for device in fleet.registry.simulated_devices()])
            batches.append(engine_batch.run_batch(matrix, tests=list(self.design.tests)))
        fleet.close()
        return batch_properties(batches)

    def instrument(self, state, recorder: Recorder):
        """Time the lock of the scheduler built before the wrappers went in."""
        return probes.time_lock(recorder, state["scheduler"])

    def close(self, state) -> None:
        state["scheduler"].close()


# ---------------------------------------------------------------------------
def _chunk_text(bits: np.ndarray) -> str:
    return (bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")


class ServiceIngest(Workload):
    """A ``fleet serve`` subprocess with a durability spool, two closed-loop clients."""

    name = "service_ingest_mix"
    op_name = "ingest"
    in_process = False
    setups = 3
    design = get_design("n128_medium")
    devices = 256
    chunk_sequences = 8
    sampled = 32
    snapshot_interval_s = 1.0
    clients = 2
    slice_s = 0.5

    def setup(self, seed: int, trace_out: Optional[str] = None) -> Dict[str, Any]:
        work = _work_dir(self.name)
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += [
            "fleet", "serve", "--design", self.design.name, "--devices", "0",
            "--rounds", "0", "--port", "0", "--quiet",
            "--snapshot-dir", os.path.join(work, "spool"),
            "--snapshot-interval", str(self.snapshot_interval_s),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        stderr = open(os.path.join(work, "server.err"), "wb")
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
        state: Dict[str, Any] = {"proc": proc, "work": work, "stderr": stderr}
        try:
            try:
                url = self._await_url(proc)
            except RuntimeError as exc:
                raise RuntimeError(f"{exc}; server stderr:\n{self._stderr_tail(state)}") from None
            rng = np.random.default_rng([seed, 4])
            ids = [f"dev-{index:03d}" for index in range(self.devices)]
            client = FleetClient(url, retries=0)
            for device_id in ids:
                client.register_device(device_id)
            sources = _row_sources(rng, self.devices, self.design.n)
            sampled = set(rng.choice(self.devices, self.sampled, replace=False).tolist())
            state.update(url=url, ids=ids, sources=dict(zip(ids, sources)),
                         sampled={ids[i] for i in sampled},
                         next_seq={device_id: 0 for device_id in ids})
        except BaseException:
            self.close(state)
            raise
        return state

    @staticmethod
    def _stderr_tail(state) -> str:
        state["stderr"].flush()
        with open(state["stderr"].name, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    @staticmethod
    def _await_url(proc: subprocess.Popen, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        marker = "listening on "
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.5)
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if marker in line:
                    return line.split(marker, 1)[1].strip()
        raise RuntimeError("fleet serve did not report its address")

    def measure(self, state, seconds: float, gauge: HostGauge,
                recorder: Optional[Recorder] = None) -> Window:
        parts = [
            {"ingests": OpLog(), "reads": OpLog(), "sent": [], "step": 0, "cursor": 0,
             "owned": state["ids"][part :: self.clients],
             "client": FleetClient(state["url"], retries=0)}
            for part in range(self.clients)
        ]
        slices = []
        start = time.perf_counter()
        end = start + seconds
        gauge.tick()
        while time.perf_counter() < end:
            # The clients pause every slice_s so the gauge runs on an idle box.
            interval = len(gauge.times) - 1
            slice_start = time.perf_counter()
            deadline = min(slice_start + self.slice_s, end)
            threads = [
                threading.Thread(target=self._client_loop,
                                 args=(state, part, deadline, interval, recorder))
                for part in parts
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            slices.append((interval, time.perf_counter() - slice_start))
            gauge.tick()
        wall = time.perf_counter() - start
        ingests, reads, sent = OpLog(), OpLog(), []
        for part in parts:
            offset = len(ingests.latencies)
            ingests.extend(part["ingests"])
            reads.extend(part["reads"])
            sent += [(offset + index, *rest) for index, *rest in part["sent"]]
        bits = ingests.completed * self.chunk_sequences * self.design.n
        return Window(ingests, wall, bits=bits, reads=reads, slices=slices,
                      extra={"sent": sent})

    def _client_loop(self, state, part, deadline: float, interval: int, recorder) -> None:
        ingest_log, read_log, sent = part["ingests"], part["reads"], part["sent"]
        client = part["client"]
        chunk_bits = self.chunk_sequences * self.design.n
        while time.perf_counter() < deadline:
            part["step"] += 1
            owned = part["owned"]
            device_id = owned[part["cursor"] % len(owned)]
            if part["step"] % 10 == 0:
                summary = part["step"] % 100 == 0
                try:
                    with _op_span(recorder):
                        t0 = time.perf_counter()
                        reply = client.fleet_summary() if summary else client.device_health(device_id)
                        elapsed = time.perf_counter() - t0
                except FleetServiceError:
                    read_log.fail(interval)
                    continue
                read_log.ok(elapsed, interval)
                good = (reply.get("num_devices") == self.devices if summary
                        else reply.get("device_id") == device_id)
                if not good:
                    read_log.mark_failed(len(read_log.latencies) - 1)
                continue
            part["cursor"] += 1
            seq = state["next_seq"][device_id]
            text = _chunk_text(state["sources"][device_id].generate_block(chunk_bits))
            try:
                with _op_span(recorder):
                    t0 = time.perf_counter()
                    reply = client.ingest(device_id, text, seq=seq)
                    elapsed = time.perf_counter() - t0
            except FleetServiceError:
                ingest_log.fail(interval)
                # The chunk may or may not have been applied; stop feeding
                # this device so later verdicts are not compared out of order.
                part["owned"] = [other for other in owned if other != device_id] or owned
                continue
            ingest_log.ok(elapsed, interval)
            state["next_seq"][device_id] = seq + 1
            index = len(ingest_log.latencies) - 1
            if reply.get("duplicate") or reply.get("sequences") != self.chunk_sequences:
                ingest_log.mark_failed(index)
            if device_id in state["sampled"]:
                sent.append((index, device_id, seq, text, reply["verdicts"]))

    def verify(self, state, window: Window) -> int:
        registry = DeviceRegistry(self.design.name)
        for device_id in sorted(state["sampled"]):
            registry.register(device_id)
        control = FleetScheduler(registry)
        mismatches = 0
        last_op: Dict[str, int] = {}
        for index, device_id, seq, text, verdicts in sorted(
            window.extra["sent"], key=lambda item: (item[1], item[2])
        ):
            events = control.ingest(device_id, text, seq=seq)
            expected = [
                {"sequence_index": event.sequence_index, "passed": event.report.passed,
                 "failing_tests": list(event.report.failing_tests),
                 "state": event.state.value}
                for event in events
            ]
            last_op[device_id] = index
            if expected != verdicts:
                mismatches += 1
                window.ops.mark_failed(index)
        client = FleetClient(state["url"], retries=0)
        for device_id in sorted(state["sampled"]):
            if client.device_health(device_id) != registry.get(device_id).snapshot():
                mismatches += 1
                if device_id in last_op:
                    window.ops.mark_failed(last_op[device_id])
        control.close()
        return mismatches

    def properties(self, state, window: Window) -> Dict[str, float]:
        batches = []
        for _, _, _, text, _ in window.extra["sent"][:64]:
            bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
            matrix = bits.reshape(self.chunk_sequences, self.design.n)
            batches.append(engine_batch.run_batch(matrix, tests=list(self.design.tests)))
        return batch_properties(batches)

    def peak_rss_mb(self, state) -> float:
        with open(f"/proc/{state['proc'].pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self, state) -> None:
        proc = state["proc"]
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        finally:
            state["stderr"].close()
            shutil.rmtree(state["work"], ignore_errors=True)


# ---------------------------------------------------------------------------
class Recover(Workload):
    """``recover_fleet`` on a duplicate-heavy spool of 1024 devices."""

    name = "recover_1024"
    op_name = "recover"
    setups = 3
    design = get_design("n128_medium")
    devices = 1024
    chunks = 8

    def setup(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng([seed, 5])
        n = self.design.n
        work = _work_dir(self.name)
        spool = os.path.join(work, "spool")
        registry = DeviceRegistry(self.design.name)
        ids = [f"dev-{index:04d}" for index in range(self.devices)]
        for device_id in ids:
            registry.register(device_id)
        live = FleetScheduler(registry)
        durable = durability.DurableFleet(live, spool)
        durable.start()
        sources = _row_sources(rng, self.devices, n)
        for seq in range(self.chunks):
            for device_id, source in zip(ids, sources):
                live.ingest(device_id, source.generate_block(n), seq=seq)
        durable.checkpoint()
        tail = sorted(rng.choice(self.devices, self.devices // 8, replace=False).tolist())
        tail_chunks = []
        for index in tail:
            bits = sources[index].generate_block(n)
            tail_chunks.append(bits)
            live.ingest(ids[index], bits, seq=self.chunks)
        durable.close(final_snapshot=False)
        expected = self._fleet_state(live)
        live.close()
        return {"work": work, "spool": spool, "expected": expected, "tail": tail_chunks}

    @staticmethod
    def _fleet_state(scheduler: FleetScheduler) -> Dict[str, Any]:
        return {
            device.device_id: (device.snapshot(), scheduler.last_ingest_seq(device.device_id))
            for device in scheduler.registry
        }

    def measure(self, state, seconds: float, gauge: HostGauge,
                recorder: Optional[Recorder] = None) -> Window:
        ops = OpLog()
        applied = 0
        replayed = duplicates = mismatches = 0
        start = time.perf_counter()
        gauge.tick()
        while time.perf_counter() - start < seconds:
            interval = len(gauge.times) - 1
            try:
                with _op_span(recorder):
                    t0 = time.perf_counter()
                    scheduler, stats = durability.recover_fleet(state["spool"])
                    elapsed = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - a raising recovery is a failed operation
                ops.fail(interval)
                gauge.tick()
                continue
            ops.ok(elapsed, interval)
            # Checked right away: one recovered fleet is held at a time.
            if self._fleet_state(scheduler) != state["expected"] or stats.errors or stats.gaps:
                mismatches += 1
                ops.mark_failed(ops.attempted - 1)
            scheduler.close()
            applied += stats.applied
            duplicates += stats.duplicates
            replayed += stats.applied + stats.duplicates + stats.gaps + stats.errors
            gauge.tick()
        wall = time.perf_counter() - start
        per_op = applied // max(ops.completed, 1)
        return Window(ops, wall, bits=ops.completed * per_op * self.design.n,
                      extra={"duplicates": duplicates, "replayed": replayed,
                             "mismatches": mismatches})

    def verify(self, state, window: Window) -> int:
        return window.extra["mismatches"]

    def properties(self, state, window: Window) -> Dict[str, float]:
        batches = [engine_batch.run_batch(bits.reshape(1, -1), tests=list(self.design.tests))
                   for bits in state["tail"]]
        out = batch_properties(batches)
        replayed = window.extra["replayed"]
        out["input.wal_duplicate_share"] = window.extra["duplicates"] / replayed if replayed else 0.0
        return out

    def close(self, state) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (EngineBatch, FleetRound, ServiceIngest, Recover)}
