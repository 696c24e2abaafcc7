"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]

``--trace 0`` measures the end-to-end metrics with tracing off; their
timings are given at reference host speed (``host.py``).  ``--trace 1``
measures the per-layer metrics: the first half of the window runs untraced,
the second half with the timing wrappers of ``probes.py`` installed, and every
layer is reported per operation of the traced half.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it (``# ...``) carry the host
context, the workload's own metric names, the input properties and the
per-layer table.  ``--out`` appends the full record of the run as one JSON
line, the input of ``compare.py``.

The workloads and every metric are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from host import HostGauge, copy_bandwidth_gb_per_s, host_context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mbit_per_s", "Mbit/s"),
    ("op_p50_ms", "ms"),
]

#: Canonical ids of the tests the workloads run (the union of n65536_high
#: and n128_medium, i.e. the paper's nine hardware-suitable tests).
TEST_IDS = (
    "nist.frequency", "nist.block_frequency", "nist.runs", "nist.longest_run",
    "nist.non_overlapping_template", "nist.overlapping_template", "nist.serial",
    "nist.approximate_entropy", "nist.cumulative_sums",
)

#: (name, unit) of every per-layer metric, as listed in BENCHMARK.json.
#: Layer values are per operation of the traced window (``/op``); a layer a
#: workload never reaches reads 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("host.copy_gb_per_s", "GB/s"),
    ("host.reference_ms", "ms"),
    ("host.nproc", "count"),
    ("bench.op.busy_s", "s/op"),
    ("bench.op.self_s", "s/op"),
    ("obs.tracing_overhead_ratio", "ratio"),
    ("obs.self_time_coverage", "ratio"),
    ("trng.generate.busy_s", "s/op"),
    ("trng.generate.calls", "calls/op"),
    ("engine.packed.pack.busy_s", "s/op"),
    ("engine.packed.pack.bytes", "B/op"),
    ("engine.packed.pack.bw_fraction", "ratio"),
    *[(f"engine.test.{test_id}.busy_s", "s/op") for test_id in TEST_IDS],
    ("engine.test.busy_s", "s/op"),
    ("engine.test.bw_fraction", "ratio"),
    ("engine.test.row_calls", "calls/op"),
    ("engine.test.batch_calls", "calls/op"),
    ("engine.run_batch.calls", "calls/op"),
    ("engine.run_batch.busy_s", "s/op"),
    ("engine.run_batch.self_s", "s/op"),
    ("core.monitor.observe.busy_s", "s/op"),
    ("core.monitor.observe.calls", "calls/op"),
    ("fleet.scheduler.run_round.busy_s", "s/op"),
    ("fleet.scheduler.run_round.self_s", "s/op"),
    ("fleet.scheduler.ingest.busy_s", "s/op"),
    ("fleet.scheduler.ingest.self_s", "s/op"),
    ("fleet.scheduler.lock.wait_s", "s/op"),
    ("nist.common.to_bits.busy_s", "s/op"),
    ("fleet.durability.wal_append.busy_s", "s/op"),
    ("fleet.durability.wal_append.records", "calls/op"),
    ("fleet.durability.wal_append.bytes", "B/op"),
    ("fleet.durability.snapshot_write.busy_s", "s/op"),
    ("fleet.durability.snapshot_write.bytes", "B/op"),
    ("fleet.durability.snapshot_read.busy_s", "s/op"),
    ("fleet.durability.journal_read.busy_s", "s/op"),
    ("fleet.durability.journal_read.bytes", "B/op"),
    ("fleet.durability.replay.self_s", "s/op"),
    ("fleet.durability.replay.useful_ratio", "ratio"),
    ("fleet.durability.recover.self_s", "s/op"),
    ("fleet.service.ingest.busy_s", "s/op"),
    ("fleet.service.health.busy_s", "s/op"),
    ("fleet.service.summary.busy_s", "s/op"),
    ("fleet.service.self_s", "s/op"),
    ("fleet.service.http.self_s", "s/op"),
    ("fleet.service.refused_ratio", "ratio"),
    ("fleet.client.request.busy_s", "s/op"),
    ("fleet.wire.busy_s", "s/op"),
    *[(f"input.{test_id}.distinct_p_share", "ratio") for test_id in TEST_IDS],
    ("input.failing_row_share", "ratio"),
    ("input.wal_duplicate_share", "ratio"),
]

SERVICE_ROUTES = ("ingest", "health", "summary", "devices", "other")

#: Layer-table field behind each per-operation metric suffix.
_FIELDS = {"busy_s": "busy", "wait_s": "busy", "self_s": "self", "calls": "calls",
           "records": "calls", "bytes": "amount"}


def layer_metrics(
    client_rows: Sequence[tuple],
    server_rows: Sequence[tuple],
    window: Tuple[float, float],
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer values per traced operation, and the full per-op layer table.

    In-process spans count when they descend from a ``bench.op`` root that
    starts inside ``window``.  Server spans of the service count when their
    root request (``fleet.service.http``) starts inside it; other server
    roots (the snapshot thread) are background work.  The client request's
    self time is net of the server's request time, so the self times of all
    counted layers add up to the operations' time.
    """
    import probes
    from spans import layer_totals, roots

    def select(rows, wanted) -> List[bool]:
        top = roots(rows)
        return [wanted(rows[root][0]) and window[0] <= rows[root][1] < window[1]
                for root in top]

    table = layer_totals(client_rows, select(client_rows, lambda name: name == "bench.op"))
    background: Dict[str, Dict[str, float]] = {}
    if server_rows:
        requests = layer_totals(
            server_rows, select(server_rows, lambda name: name == "fleet.service.http")
        )
        background = layer_totals(
            server_rows, select(server_rows, lambda name: name != "fleet.service.http")
        )
        for name, row in requests.items():
            merged = table.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                merged[key] += value
        if "fleet.client.request" in table:
            table["fleet.client.request"]["self"] -= requests.get(
                "fleet.service.http", {}).get("busy", 0.0)

    def get(name: str, key: str, rows=table) -> float:
        return rows.get(name, {}).get(key, 0.0)

    ops = get("bench.op", "calls")
    op_busy = get("bench.op", "busy")
    if not ops or op_busy <= 0:
        raise RuntimeError("no traced operation inside the window")
    per_op = {name: {key: value / ops for key, value in row.items()}
              for name, row in sorted(table.items())}

    # Per-operation values follow from the metric name: "<span>.<field>".
    values: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if unit.endswith("/op") and field in _FIELDS:
            values[name] = get(span, _FIELDS[field])
    routes = [f"fleet.service.{route}" for route in SERVICE_ROUTES]
    rows = [f"engine.test.{test_id}" for test_id in TEST_IDS]
    batches = [name + probes.BATCH_SUFFIX for name in rows]
    for name, batch in zip(rows, batches):
        values[name + ".busy_s"] += get(batch, "busy")
    test_busy = sum(get(name, "busy") for name in rows + batches)
    values.update({
        "engine.test.busy_s": test_busy,
        "engine.test.row_calls": sum(get(name, "calls") for name in rows),
        "engine.test.batch_calls": sum(get(name, "calls") for name in batches),
        "fleet.service.self_s": sum(get(name, "self") for name in routes),
        "fleet.wire.busy_s": get("fleet.client.request", "busy")
        - sum(get(name, "busy") for name in routes) if server_rows else 0.0,
    })
    # The server's snapshot thread is background work, outside any operation.
    values["fleet.durability.snapshot_write.busy_s"] += get(
        "fleet.durability.snapshot_write", "busy", background)
    values["fleet.durability.snapshot_write.bytes"] += get(
        "fleet.durability.snapshot_write", "amount", background)
    values = {name: value / ops for name, value in values.items()}

    # Shares and ratios are not per operation.
    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values["obs.self_time_coverage"] = share(sum(row["self"] for row in table.values()), op_busy)
    values["fleet.durability.replay.useful_ratio"] = share(
        get("fleet.durability.replay", "amount"), get(probes.REPLAYED, "amount"))
    values["fleet.service.refused_ratio"] = share(
        sum(get(name, "amount") for name in routes), sum(get(name, "calls") for name in routes))
    # Bytes per second; run() divides by the host's copy bandwidth.
    values["engine.test.bw_fraction"] = share(
        sum(get(name, "amount") for name in rows + batches), test_busy)
    values["engine.packed.pack.bw_fraction"] = share(
        get("engine.packed.pack", "amount"), get("engine.packed.pack", "busy"))
    return values, per_op


def _finite(value: float, fallback: float) -> float:
    return float(value) if math.isfinite(value) else float(fallback)


def work_time(window, ops, factor: Callable[[int], float] = lambda _: 1.0) -> float:
    """Time the throughput is taken over: summed operation times of a
    one-thread loop, the (gauge-scaled) slices of concurrent clients."""
    if window.slices:
        return sum(seconds * factor(interval) for interval, seconds in window.slices)
    return ops.busy_s()


def latency_names(prefix: str, ops) -> Dict[str, Tuple[float, str]]:
    """``<prefix>_p50_ms`` and the highest supported tail percentile."""
    summary = ops.summary()
    out = {f"{prefix}_p50_ms": (summary["p50_ms"], "ms")}
    level = summary.get("tail_level")
    if level is not None and level > 50:
        out[f"{prefix}_p{level:g}_ms"] = (summary["tail_ms"], "ms")
    return out


def named_metrics(workload, window, gauge) -> Dict[str, Tuple[float, str]]:
    """The workload's own metric names, as measured and at reference speed."""
    out: Dict[str, Tuple[float, str]] = {}
    for suffix, factor in (("", lambda _: 1.0), ("@ref", gauge.factor)):
        ops = window.ops.scaled(factor)
        names = latency_names(workload.op_name, ops)
        if window.reads is not None:
            names.update(latency_names("read", window.reads.scaled(factor)))
            work = work_time(window, ops, factor)
            names["ingest_per_s"] = (ops.completed / work if work > 0 else 0.0, "req/s")
        out.update({name + suffix: value for name, value in names.items()})
    return out


def end_to_end_run(workload, seed: int, seconds: float, record: Dict[str, object]):
    """Set up ``workload.setups`` times, measure untraced; the metric values.

    Timings are scaled to reference host speed with the gauge ticks around
    each set-up and between operations.
    """
    gauge = HostGauge()
    gauge.tick()
    setups = []
    state = None
    for _ in range(workload.setups):
        if state is not None:
            workload.close(state)
        start = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - start)
        gauge.tick()
    setups_ref = [raw * gauge.factor(index) for index, raw in enumerate(setups)]
    try:
        window = workload.measure(state, seconds, gauge)
        peak_rss = workload.peak_rss_mb(state)
        mismatches = workload.verify(state, window)
    finally:
        workload.close(state)
    ops_ref = window.ops.scaled(gauge.factor)
    record["setup_samples_s"] = setups
    record["setup_samples_ref_s"] = setups_ref
    record["named"] = named_metrics(workload, window, gauge)
    record["ops"] = window.ops.summary()
    record["host"]["reference_ms"] = statistics.median(gauge.times) * 1e3
    work_ref = work_time(window, ops_ref, gauge.factor)
    metrics = {
        "setup_s": statistics.median(setups_ref),
        "peak_rss_mb": peak_rss,
        "mbit_per_s": window.bits / work_ref / 1e6 if work_ref > 0 else 0.0,
        "op_p50_ms": _finite(percentile_ms(ops_ref.latencies, 50.0), window.wall_s * 1e3),
    }
    return metrics, [window], mismatches


def per_layer_run(workload, seed: int, seconds: float, record: Dict[str, object]):
    """Half the window untraced, half traced; the per-layer values."""
    import probes
    import workloads
    from spans import Recorder

    half = seconds / 2.0
    recorder = Recorder()
    gauge = HostGauge()
    trace_path = None
    state = workload.setup(seed)
    try:
        plain = workload.measure(state, half, gauge)
        mismatches = workload.verify(state, plain)
        if not workload.in_process:
            # A server is traced from its start: measure a second, traced one.
            workload.close(state)
            state = None
            trace_path = os.path.join(workloads.WORK_ROOT, f"trace-{os.getpid()}.json")
            os.makedirs(workloads.WORK_ROOT, exist_ok=True)
            state = workload.setup(seed, trace_out=trace_path)
        undo = [probes.install(recorder)]
        try:
            undo.append(workload.instrument(state, recorder))
            start = recorder.clock()
            traced = workload.measure(state, half, gauge, recorder)
            bounds = (start, recorder.clock())
        finally:
            while undo:
                undo.pop()()
        mismatches += workload.verify(state, traced)
        properties = workload.properties(state, traced)
    finally:
        if state is not None:
            workload.close(state)
    server_rows: List[tuple] = []
    if trace_path is not None:
        with open(trace_path, encoding="utf-8") as handle:
            server_rows = [tuple(row) for row in json.load(handle)]
        os.remove(trace_path)
    values, table = layer_metrics(recorder.export(), server_rows, bounds)
    bandwidth = copy_bandwidth_gb_per_s()
    values["engine.test.bw_fraction"] /= bandwidth * 1e9
    values["engine.packed.pack.bw_fraction"] /= bandwidth * 1e9
    values["host.copy_gb_per_s"] = bandwidth
    values["host.reference_ms"] = statistics.median(gauge.times) * 1e3
    values["host.nproc"] = float(record["host"]["nproc"])
    # Both halves at reference speed, so host drift between them cancels.
    values["obs.tracing_overhead_ratio"] = (
        percentile_ms(traced.ops.scaled(gauge.factor).latencies, 50.0)
        / percentile_ms(plain.ops.scaled(gauge.factor).latencies, 50.0)
    )
    values.update(properties)
    record["layers"] = table
    record["properties"] = properties
    metrics = {name: values.get(name, 0.0) for name, _ in PER_LAYER}
    return metrics, [plain, traced], mismatches


def run(args) -> Dict[str, object]:
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    record: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_context(),
    }
    if args.trace == 0:
        metrics, windows, mismatches = end_to_end_run(workload, args.seed, args.seconds, record)
        units = dict(END_TO_END)
        # Measured after the window so its arrays do not count in peak RSS.
        record["host"]["copy_gb_per_s"] = copy_bandwidth_gb_per_s()
    else:
        metrics, windows, mismatches = per_layer_run(workload, args.seed, args.seconds, record)
        units = dict(PER_LAYER)
        record["host"]["copy_gb_per_s"] = metrics["host.copy_gb_per_s"]
        record["host"]["reference_ms"] = metrics["host.reference_ms"]
    logs = [w.ops for w in windows] + [w.reads for w in windows if w.reads is not None]
    failed = sum(log.failed for log in logs)
    record.update(
        correct=mismatches == 0 and failed == 0,
        attempted=sum(log.attempted for log in logs),
        failed=failed,
        mismatches=mismatches,
        metrics={name: {"value": _finite(value, 0.0), "unit": units[name]}
                 for name, value in metrics.items()},
    )
    return record


def percentile_ms(latencies: Sequence[float], q: float) -> float:
    from spans import percentile

    return percentile(latencies, q) * 1e3 if latencies else math.inf


def report(record: Dict[str, object]) -> None:
    """The ``# ...`` context lines, then the one-line result."""
    print("# host " + json.dumps(record["host"], sort_keys=True))
    if "named" in record:
        for name, (value, unit) in record["named"].items():
            print(f"# {record['workload']}: {name} = {value:.6g} {unit}")
        print("# ops " + json.dumps(record["ops"], sort_keys=True))
        print("# setup samples (s, measured): "
              + ", ".join(f"{t:.4f}" for t in record["setup_samples_s"]))
    if "layers" in record:
        print("# properties " + json.dumps(record["properties"], sort_keys=True))
        print(f"# {'layer (per op)':<44} {'calls':>9} {'busy ms':>10} {'self ms':>10}")
        total = 0.0
        for name, row in record["layers"].items():
            total += row["self"]
            print(f"# {name:<44} {row['calls']:>9.1f} {row['busy'] * 1e3:>10.3f} "
                  f"{row['self'] * 1e3:>10.3f}")
        op = record["layers"]["bench.op"]["busy"]
        print(f"# {'sum of self times / traced op time':<44} "
              f"{total * 1e3:>10.3f} / {op * 1e3:.3f} ms")
    print(f"# correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} mismatches={record['mismatches']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine_n65536_high", "fleet_round_n128",
                                 "service_ingest_mix", "recover_1024"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the run's full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: the package under test is missing ({src}/repro); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        record = run(args)
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:  # absent, or still holding another run's files
            pass
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
