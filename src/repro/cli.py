"""Command-line interface of the on-the-fly testing platform.

Installed as ``repro-trng-test`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.  Sub-commands:

``designs``
    List the eight published design points with their estimated cost.
``evaluate``
    Evaluate a captured bit stream (raw byte file) — or a built-in simulated
    source — on one design point, printing the per-test verdicts.
``monitor``
    Continuously monitor a simulated source for a number of sequences and
    report the health-state trajectory (``--batch-size`` evaluates whole
    batches through the engine instead of one sequence at a time).
``suite``
    Run the full reference NIST SP 800-22 suite (all 15 tests) on a captured
    byte file through the batch engine; the heavyweight tests run on
    batch-native kernels.
``batch``
    Evaluate a batch of sequences from a simulated source through the
    unified batch engine and report per-test pass rates and throughput.
``campaign``
    Sweep the Section II-B threat catalogue (failures, bias/correlation
    sweeps, staged injection attacks, aging) across design points through
    the batch engine; report detection probability, detection latency and
    per-test attribution, with the healthy-control false-alarm rate per
    design and optional JSON/CSV export.
``fleet``
    Many-device fleet monitoring.  ``fleet run`` instantiates a fleet from a
    scenario mix and advances it in multiplexed engine rounds (one fleet-wide
    batch per round); ``fleet serve`` additionally exposes the fleet over the
    stdlib HTTP/JSON service (ingest, per-device health, fleet summary).
``lint``
    The project-native static-analysis pass (:mod:`repro.analysis`):
    determinism, packed-kernel and lock-discipline invariants over
    ``src/``, ``benchmarks/`` and ``examples/``, with inline suppressions
    and the committed finding baseline.  Same engine as
    ``python -m repro.analysis``.
``metrics``
    Run any other sub-command as a workload and dump the process-wide
    :mod:`repro.obs` metrics registry afterwards (text exposition format,
    or ``--json`` for the structured snapshot).

The engine-driven sub-commands (``batch``, ``monitor``, ``fleet``) also
take ``--trace <path>``: the recorded :mod:`repro.obs` span trees (pack /
dispatch / decision, fleet round stages, ...) are written to the path as
JSON when the command finishes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

import repro.obs as obs
from repro.campaign import (
    CampaignConfig,
    DEFAULT_CAMPAIGN_DESIGNS,
    DEFAULT_CATALOG,
    SCENARIO_CATEGORIES,
    run_campaign,
)
from repro.core.configs import get_design, list_designs
from repro.core.monitor import HealthState, OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform
from repro.eval.asic import estimate_asic
from repro.eval.fpga import estimate_fpga
from repro.hwtests.block import UnifiedTestingBlock
from repro.nist.suite import NistSuite
from repro.trng.biased import BiasedSource
from repro.trng.capture import ReplaySource
from repro.trng.correlated import CorrelatedSource
from repro.trng.failures import AlternatingSource, StuckAtSource
from repro.trng.ideal import IdealSource
from repro.trng.oscillator import RingOscillatorTRNG
from repro.trng.source import EntropySource

__all__ = ["main", "build_parser"]

#: Built-in simulated sources selectable from the command line.  Any
#: registered campaign scenario is additionally reachable as
#: ``scenario:<label>`` — one source model, CLI and campaigns alike.
_SIMULATED_SOURCES = ("ideal", "biased", "correlated", "oscillator", "stuck", "alternating")

#: Which knobs each built-in source honours (surfaced in ``--help`` so a
#: ``--seed``/``--parameter`` that silently does nothing is documented, not a
#: surprise): deterministic sources (stuck, alternating) ignore ``--seed``;
#: only biased / correlated / stuck read ``--parameter``.
_SOURCE_HELP = (
    "simulated source: ideal | oscillator (seeded, no parameter), "
    "biased (parameter = P(1), default 0.6) | correlated (parameter = "
    "P(repeat), default 0.7), stuck (parameter = stuck bit value, 0 or 1) | "
    "alternating (deterministic: --seed and --parameter ignored), or "
    "scenario:<label> for any campaign-catalogue scenario (seeded, "
    "--parameter ignored; labels: %s)"
) % ", ".join(DEFAULT_CATALOG.labels())


def _make_source(name: str, seed: int, parameter: float, n: int) -> EntropySource:
    """Instantiate a built-in simulated source or a catalogue scenario.

    ``scenario:<label>`` defers to the campaign
    :class:`~repro.campaign.scenarios.ScenarioCatalog` builders, scaled by
    the design's sequence length ``n`` (staged attacks and aging
    trajectories unfold at the same relative point regardless of n).
    """
    if name.startswith("scenario:"):
        label = name[len("scenario:"):]
        # ScenarioCatalog.get already raises a ValueError listing the labels.
        return DEFAULT_CATALOG.get(label).build(seed, n)
    if name == "ideal":
        return IdealSource(seed=seed)
    if name == "biased":
        return BiasedSource(parameter if parameter > 0 else 0.6, seed=seed)
    if name == "correlated":
        return CorrelatedSource(parameter if parameter > 0 else 0.7, seed=seed)
    if name == "oscillator":
        return RingOscillatorTRNG(seed=seed)
    if name == "stuck":
        # The stuck value is exactly the parameter; anything but 0/1 used to
        # be silently coerced to 0, turning a typo into the wrong experiment.
        if parameter not in (0, 1):
            raise ValueError(
                f"stuck source needs --parameter 0 or 1 (the stuck bit value), "
                f"got {parameter}"
            )
        return StuckAtSource(int(parameter))
    if name == "alternating":
        return AlternatingSource()
    raise ValueError(
        f"unknown simulated source {name!r}; available: "
        f"{', '.join(_SIMULATED_SOURCES)} or scenario:<label>"
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` flag of the instrumented sub-commands."""
    parser.add_argument(
        "--trace", dest="trace_path", default=None, metavar="PATH",
        help="write the recorded repro.obs span trees (nested timed stages "
             "of this run) to PATH as JSON when the command finishes",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-trng-test",
        description="Embedded HW/SW platform for on-the-fly testing of TRNGs (DATE 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list the published design points and their cost")

    evaluate = sub.add_parser("evaluate", help="evaluate one sequence on a design point")
    evaluate.add_argument("--design", default="n65536_high", help="design point name")
    evaluate.add_argument("--alpha", type=float, default=0.01, help="level of significance")
    evaluate.add_argument("--capture", help="raw byte file with the captured TRNG output")
    evaluate.add_argument("--bits", type=int, default=None,
                          help="exact bit count of the capture (as returned by "
                               "CaptureSource.save); drops the zero-pad bits of the "
                               "last byte")
    evaluate.add_argument("--source", default="ideal",
                          help=_SOURCE_HELP + " (ignored when --capture is given)")
    evaluate.add_argument("--seed", type=int, default=0,
                          help="seed of the simulated source (deterministic sources "
                               "stuck/alternating ignore it)")
    evaluate.add_argument("--parameter", type=float, default=0.0,
                          help="source parameter: bias P(1) for biased, repeat "
                               "probability for correlated, stuck bit value (0/1) "
                               "for stuck; other sources ignore it")

    monitor = sub.add_parser("monitor", help="continuously monitor a simulated source")
    monitor.add_argument("--design", default="n128_light")
    monitor.add_argument("--alpha", type=float, default=0.01)
    monitor.add_argument("--source", default="ideal", help=_SOURCE_HELP)
    monitor.add_argument("--seed", type=int, default=0,
                         help="seed of the simulated source (deterministic sources "
                              "stuck/alternating ignore it)")
    monitor.add_argument("--parameter", type=float, default=0.0,
                         help="source parameter: bias P(1) for biased, repeat "
                              "probability for correlated, stuck bit value (0/1) "
                              "for stuck; other sources ignore it")
    monitor.add_argument("--sequences", type=int, default=8)
    monitor.add_argument("--batch-size", type=int, default=None,
                         help="evaluate sequences in engine batches of this size")
    monitor.add_argument("--max-history", type=int, default=None,
                         help="bound the in-memory event history (running totals stay exact)")
    monitor.add_argument("--rtl-fidelity", action="store_true",
                         help="drive the cycle-accurate bit-serial hardware model "
                              "bit by bit instead of the vectorized block path "
                              "(slow; for RTL-fidelity runs)")
    monitor.add_argument("--streaming", action="store_true",
                         help="feed windows from a streaming packed ring with O(1) "
                              "window rolls instead of re-packing each sequence; "
                              "--sequences counts evaluated windows")
    monitor.add_argument("--stride", type=int, default=None,
                         help="streaming only: new bits between window evaluations "
                              "(default n; < n slides overlapping windows)")
    monitor.add_argument("--history-bits", type=int, default=None,
                         help="streaming only: ring capacity in bits (default n; "
                              "bounds per-stream memory regardless of stream length)")
    _add_trace_argument(monitor)

    suite = sub.add_parser("suite", help="run the full reference NIST suite on a capture")
    suite.add_argument("capture", help="raw byte file with the captured TRNG output")
    suite.add_argument("--bits", type=int, default=None,
                       help="exact bit count of the capture (as returned by "
                            "CaptureSource.save); drops the zero-pad bits of the "
                            "last byte")
    suite.add_argument("--alpha", type=float, default=0.01)

    batch = sub.add_parser("batch", help="evaluate a batch of sequences through the engine")
    batch.add_argument("--source", default="ideal", help=_SOURCE_HELP)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--parameter", type=float, default=0.0)
    batch.add_argument("--sequences", type=int, default=64, help="number of sequences in the batch")
    batch.add_argument("--length", type=int, default=4096, help="bits per sequence")
    batch.add_argument("--alpha", type=float, default=0.01)
    batch.add_argument("--tests", default="hw",
                       help="comma-separated NIST test numbers, or 'hw' for the "
                            "HW-suitable subset, or 'all' for all 15")
    _add_trace_argument(batch)

    campaign = sub.add_parser(
        "campaign",
        help="sweep the threat catalogue across design points (detection evaluation)",
    )
    campaign.add_argument("--designs", default=",".join(DEFAULT_CAMPAIGN_DESIGNS),
                          help="comma-separated design point names")
    campaign.add_argument("--scenarios", default="all",
                          help="comma-separated catalogue labels, or 'all', or a "
                               "category (healthy/failure/parametric/attack/aging)")
    campaign.add_argument("--trials", type=int, default=3,
                          help="independent monitoring trials per cell")
    campaign.add_argument("--sequences", type=int, default=8,
                          help="sequences monitored per trial (= engine batch size)")
    campaign.add_argument("--alpha", type=float, default=0.01)
    campaign.add_argument("--suspect-after", type=int, default=1)
    campaign.add_argument("--fail-after", type=int, default=2)
    campaign.add_argument("--seed", type=int, default=0,
                          help="base seed; the whole campaign is reproducible from it")
    campaign.add_argument("--json", dest="json_path", default=None,
                          help="write the full campaign report as JSON to this path")
    campaign.add_argument("--csv", dest="csv_path", default=None,
                          help="write the summary table as CSV to this path")

    fleet = sub.add_parser(
        "fleet",
        help="multiplexed many-device fleet monitoring (run rounds or serve HTTP)",
    )
    fleet.add_argument("mode", choices=("run", "serve"),
                       help="run: advance the fleet for --rounds and report; "
                            "serve: also expose the fleet over the HTTP/JSON service")
    fleet.add_argument("--devices", type=int, default=256,
                       help="number of simulated devices in the fleet")
    fleet.add_argument("--rounds", type=int, default=8,
                       help="fleet rounds to run (one sequence per device per round)")
    fleet.add_argument("--design", default="n128_light", help="shared design point")
    fleet.add_argument("--alpha", type=float, default=0.01)
    fleet.add_argument("--mix", default=None,
                       help="scenario mix as <label>:<weight>,... over the campaign "
                            "catalogue (default: 95%% healthy-ideal, 5%% spread over "
                            "wire-cut, biased-0.60, freq-injection, aging-drift)")
    fleet.add_argument("--suspect-after", type=int, default=1)
    fleet.add_argument("--fail-after", type=int, default=2)
    fleet.add_argument("--seed", type=int, default=0,
                       help="fleet seed; device placement and streams derive from it")
    fleet.add_argument("--streaming", action="store_true",
                       help="keep per-device packed rings across rounds (O(1) window "
                            "rolls, ingest accepts arbitrary chunk sizes) instead of "
                            "rebuilding each round's matrix; verdicts are identical")
    fleet.add_argument("--json", dest="json_path", default=None,
                       help="write the full fleet report as JSON to this path")
    fleet.add_argument("--csv", dest="csv_path", default=None,
                       help="write the per-scenario summary as CSV to this path")
    fleet.add_argument("--host", default="127.0.0.1", help="serve: bind address")
    fleet.add_argument("--port", type=int, default=8080,
                       help="serve: TCP port (0 picks a free one)")
    fleet.add_argument("--snapshot-dir", default=None,
                       help="serve: durability spool directory; enables atomic "
                            "fleet snapshots plus the write-ahead ingest journal")
    fleet.add_argument("--snapshot-interval", type=float, default=None,
                       help="serve: seconds between background snapshots "
                            "(requires --snapshot-dir; default: only on "
                            "startup and shutdown)")
    fleet.add_argument("--restore", action="store_true",
                       help="serve: restore the fleet from --snapshot-dir "
                            "(snapshot + journal replay) instead of building "
                            "a fresh one; falls back to fresh when the spool "
                            "holds no snapshot yet")
    fleet.add_argument("--wal-fsync", action="store_true",
                       help="serve: fsync every journal record (survives "
                            "machine crashes, not just process crashes; "
                            "costs throughput)")
    fleet.add_argument("--max-inflight", type=int, default=None,
                       help="serve: max concurrent ingest evaluations before "
                            "load-shedding with 429 + Retry-After")
    fleet.add_argument("--quarantine-after", type=int, default=None,
                       help="serve: quarantine a device (403) after this many "
                            "consecutive malformed ingests")
    fleet.add_argument("--max-body-bytes", type=int, default=None,
                       help="serve: reject request bodies larger than this "
                            "with 413 (default: 32 MiB)")
    fleet.add_argument("--quiet", action="store_true",
                       help="serve: log only warnings and errors (drop the "
                            "per-request INFO lines of the service logger)")
    _add_trace_argument(fleet)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection harness: boot the fleet service, kill "
             "it mid-ingest, restore from snapshot + journal, and verify the "
             "recovered fleet matches an uninterrupted control run",
    )
    chaos.add_argument("--devices", type=int, default=4,
                       help="externally-fed devices driven over HTTP")
    chaos.add_argument("--chunks", type=int, default=6,
                       help="sequenced chunks ingested per device")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for device bits, fault schedule and kill point")
    chaos.add_argument("--design", default="n128_light", help="shared design point")
    chaos.add_argument("--kill-after", type=int, default=None,
                       help="SIGKILL the service after this many acknowledged "
                            "ingests (default: a seeded point mid-run)")
    chaos.add_argument("--drop", type=float, default=0.1,
                       help="per-chunk probability of dropping the send once "
                            "before retrying it")
    chaos.add_argument("--duplicate", type=float, default=0.1,
                       help="per-chunk probability of sending the chunk twice")
    chaos.add_argument("--reorder", type=float, default=0.1,
                       help="per-chunk probability of sending the next chunk "
                            "first (expects 409, then recovers the order)")
    chaos.add_argument("--corrupt", type=float, default=0.1,
                       help="per-chunk probability of sending a corrupt payload "
                            "first (expects 400, then the real chunk)")
    chaos.add_argument("--snapshot-interval", type=float, default=0.2,
                       help="background snapshot interval of the service under test")
    chaos.add_argument("--streaming", action="store_true",
                       help="exercise the streaming ingest path (varied chunk "
                            "sizes) instead of whole sequences")
    chaos.add_argument("--workdir", default=None,
                       help="spool/scratch directory (default: a fresh "
                            "temporary directory, removed on success)")
    chaos.add_argument("--report", default=None,
                       help="write the JSON recovery report to this path")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress the per-phase progress lines")

    lint = sub.add_parser(
        "lint",
        help="run the project-native static-analysis pass (repro.analysis)",
    )
    # The analysis CLI owns its option surface; `lint` is a thin alias so
    # both entry points accept exactly the same flags.
    from repro.analysis.cli import configure_parser as _configure_lint_parser

    _configure_lint_parser(lint)

    metrics = sub.add_parser(
        "metrics",
        help="run another sub-command as a workload, then dump the "
             "repro.obs metrics registry it populated",
    )
    metrics.add_argument("--json", dest="json_output", action="store_true",
                         help="dump the structured JSON snapshot instead of "
                              "the Prometheus text exposition format")
    metrics.add_argument("workload", nargs=argparse.REMAINDER,
                         help="any repro.cli command line, e.g. "
                              "'batch --sequences 32 --length 4096'; omit to "
                              "dump the (empty) registry as-is")

    return parser


def _cmd_designs(out) -> int:
    print(f"{'design':<18}{'n':>9}{'tests':>7}{'slices':>8}{'FF':>7}{'LUT':>7}{'fmax':>7}{'GE':>8}", file=out)
    for design in list_designs():
        block = UnifiedTestingBlock(design.parameters, tests=design.tests)
        resources = block.resources()
        fpga = estimate_fpga(resources)
        asic = estimate_asic(resources)
        print(
            f"{design.name:<18}{design.n:>9}{len(design.tests):>7}{fpga.slices:>8}"
            f"{fpga.flip_flops:>7}{fpga.luts:>7}{fpga.max_frequency_mhz:>7.0f}"
            f"{asic.gate_equivalents:>8}",
            file=out,
        )
    return 0


def _cmd_evaluate(args, out) -> int:
    platform = OnTheFlyPlatform(args.design, alpha=args.alpha)
    if args.capture:
        try:
            source: EntropySource = ReplaySource.from_file(args.capture, bit_length=args.bits)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
        if source.total_bits < platform.n:
            print(
                f"error: capture holds {source.total_bits} bits but design "
                f"{args.design} needs {platform.n}",
                file=out,
            )
            return 2
        bits = source.generate_block(platform.n)
        report = platform.evaluate_sequence(bits, accelerated=True)
        origin = args.capture
    else:
        try:
            simulated = _make_source(args.source, args.seed, args.parameter, platform.n)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
        bits = simulated.generate_block(platform.n)
        report = platform.evaluate_sequence(bits, accelerated=True)
        origin = simulated.name
    print(f"design   : {args.design} (n = {platform.n}, alpha = {args.alpha})", file=out)
    print(f"source   : {origin}", file=out)
    print(f"verdict  : {'PASS' if report.passed else 'FAIL'}", file=out)
    for row in report.summary_rows():
        status = "ok  " if row["passed"] else "FAIL"
        print(f"  [{status}] test {row['test']:>2}: {row['name']}", file=out)
    if report.consistency_violations:
        print(f"read-out consistency violations: {report.consistency_violations}", file=out)
    return 0 if report.passed else 1


def _cmd_monitor(args, out) -> int:
    platform = OnTheFlyPlatform(args.design, alpha=args.alpha)
    monitor = OnTheFlyMonitor(
        platform, suspect_after=1, fail_after=2, max_history=args.max_history
    )
    try:
        source = _make_source(args.source, args.seed, args.parameter, platform.n)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.streaming and args.rtl_fidelity:
        print("error: --streaming evaluates windows from the packed ring; "
              "it cannot drive the bit-serial --rtl-fidelity model", file=out)
        return 2
    if not args.streaming and (args.stride is not None or args.history_bits is not None):
        print("error: --stride/--history-bits require --streaming", file=out)
        return 2
    if args.rtl_fidelity:
        path = "bit-serial RTL model (--rtl-fidelity)"
    elif args.streaming:
        path = "streaming packed-ring window roll (--streaming)"
    else:
        path = "vectorized block streaming (default)"
    print(f"hardware path: {path}", file=out)
    if args.streaming:
        try:
            events = monitor.monitor_stream(
                source,
                num_windows=args.sequences,
                stride=args.stride,
                history_bits=args.history_bits,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
    else:
        events = monitor.monitor(
            source,
            num_sequences=args.sequences,
            batch_size=args.batch_size,
            accelerated=not args.rtl_fidelity,
        )
    for event in events:
        verdict = "pass" if event.report.passed else f"fail {event.report.failing_tests}"
        print(
            f"sequence {event.sequence_index:>3}  {verdict:<26}  health: {event.state.value}",
            file=out,
        )
    print(f"final state: {monitor.state.value}  failure rate: {monitor.failure_rate():.2f}", file=out)
    # Exit code keyed off the final health state, not the failure rate: a
    # healthy source loses individual sequences at rate ~alpha, and a single
    # recovered blip must not make the whole monitoring run report failure.
    return 0 if monitor.state is HealthState.HEALTHY else 1


def _cmd_suite(args, out) -> int:
    try:
        source = ReplaySource.from_file(args.capture, bit_length=args.bits)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    bits = source.generate(source.total_bits)
    report = NistSuite().run_batch([bits])[0]
    print(f"reference NIST SP 800-22 suite on {args.capture} ({source.total_bits} bits)", file=out)
    for row in report.summary_rows(args.alpha):
        if row.get("error"):
            print(f"  test {row['test']:>2}: {row['name']:<44} skipped ({row['error']})", file=out)
        else:
            status = "ok  " if row["passed"] else "FAIL"
            print(
                f"  [{status}] test {row['test']:>2}: {row['name']:<44} p = {row['p_value']:.4f}",
                file=out,
            )
    return 0 if report.passed(args.alpha) else 1


def _cmd_batch(args, out) -> int:
    from repro.engine import NIST_NUMBER_TO_ID, run_batch
    from repro.nist.suite import HW_SUITABLE_TESTS, NIST_TEST_NAMES

    if args.tests == "hw":
        tests = list(HW_SUITABLE_TESTS)
    elif args.tests == "all":
        tests = list(range(1, 16))
    else:
        try:
            tests = [int(part) for part in args.tests.split(",") if part.strip()]
        except ValueError:
            print(f"error: --tests must be 'hw', 'all' or numbers, got {args.tests!r}", file=out)
            return 2
        unknown = [number for number in tests if number not in NIST_TEST_NAMES]
        if unknown or not tests:
            print(f"error: unknown test numbers {unknown or args.tests!r} (valid: 1..15)", file=out)
            return 2
    try:
        source = _make_source(args.source, args.seed, args.parameter, args.length)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    matrix = source.generate_matrix(args.sequences, args.length, packed=True)
    # The span doubles as the throughput timer (spans always measure time;
    # repro.obs is the sanctioned wall-clock home, see rule OBS001).
    with obs.span("cli.batch", sequences=args.sequences, length=args.length) as batch_span:
        reports = run_batch(matrix, tests=tests)
    elapsed = batch_span.duration_s
    print(
        f"engine batch: {args.sequences} sequences x {args.length} bits from "
        f"{source.name} ({len(tests)} tests, alpha = {args.alpha})",
        file=out,
    )
    # A healthy source still fails each test with probability ~alpha, so the
    # exit code flags only gross deviations from the expected pass rate.
    healthy = True
    minimum_rate = max(0.0, 1.0 - 10.0 * args.alpha)
    for number in tests:
        test_id = NIST_NUMBER_TO_ID[number]
        outcomes = [r.results[test_id] for r in reports if test_id in r.results]
        errors = sum(1 for r in reports if test_id in r.errors)
        passes = sum(1 for result in outcomes if result.passed(args.alpha))
        rate = passes / len(outcomes) if outcomes else float("nan")
        healthy = healthy and bool(outcomes) and rate >= minimum_rate
        suffix = f"  ({errors} skipped)" if errors else ""
        print(
            f"  test {number:>2}: {NIST_TEST_NAMES[number]:<44} "
            f"pass rate {rate:6.1%}{suffix}",
            file=out,
        )
    throughput = args.sequences / elapsed if elapsed > 0 else float("inf")
    print(
        f"evaluated in {elapsed:.3f} s  ({throughput:.1f} sequences/s, "
        f"{args.sequences * args.length / elapsed / 1e6:.1f} Mbit/s)",
        file=out,
    )
    return 0 if healthy else 1


def _cmd_campaign(args, out) -> int:
    from repro.eval.attribution import format_attribution_table

    designs = tuple(name.strip() for name in args.designs.split(",") if name.strip())
    selector = args.scenarios.strip()
    if selector == "all":
        scenarios: tuple = ()
    elif selector in SCENARIO_CATEGORIES:
        scenarios = tuple(
            spec.label for spec in DEFAULT_CATALOG.select(categories=[selector])
        )
    else:
        scenarios = tuple(label.strip() for label in selector.split(",") if label.strip())
    config = CampaignConfig(
        designs=designs,
        scenarios=scenarios,
        trials=args.trials,
        sequences_per_trial=args.sequences,
        alpha=args.alpha,
        suspect_after=args.suspect_after,
        fail_after=args.fail_after,
        seed=args.seed,
    )
    try:
        config.validate()
        for label in scenarios:
            DEFAULT_CATALOG.get(label)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    report = run_campaign(config)
    print(
        f"detection campaign: {len(report.scenarios)} scenarios x "
        f"{len(report.designs)} designs, {args.trials} trials x "
        f"{args.sequences} sequences per cell (alpha = {args.alpha}, "
        f"seed = {args.seed})",
        file=out,
    )
    print("", file=out)
    print(report.format_table(), file=out)
    print("", file=out)
    print("per-test attribution (trials in which each test flagged the threat):", file=out)
    print(format_attribution_table(report.threat_cells()), file=out)
    print("", file=out)
    for design in report.designs:
        rate = report.control_false_alarm_rate(design)
        shown = f"{rate:.3f}" if rate is not None else "n/a (no healthy controls run)"
        print(f"healthy-control false-alarm rate [{design}]: {shown}", file=out)
    detected = report.detected_everywhere()
    print(
        f"threats detected in every trial on every design: "
        f"{len(detected)}/{len(set(c.scenario for c in report.threat_cells()))}",
        file=out,
    )
    if args.json_path:
        report.save_json(args.json_path)
        print(f"JSON report written to {args.json_path}", file=out)
    if args.csv_path:
        report.save_csv(args.csv_path)
        print(f"CSV summary written to {args.csv_path}", file=out)
    return 0


def _configure_service_logging(quiet: bool) -> None:
    """Wire the fleet-service logger to stderr for ``fleet serve``.

    One structured line per request at INFO (method, path, status, latency);
    ``--quiet`` keeps only warnings and errors.  Library use of the service
    stays silent — only the CLI attaches a handler, and only once.
    """
    service_logger = logging.getLogger("repro.fleet.service")
    if not service_logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        service_logger.addHandler(handler)
    service_logger.setLevel(logging.WARNING if quiet else logging.INFO)


def _cmd_fleet(args, out) -> int:
    from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler, serve
    from repro.fleet.durability import has_snapshot, recover_fleet

    serving = args.mode == "serve"
    try:
        # serve mode may start with zero simulated rounds; run mode without
        # rounds would silently produce no report (and no --json/--csv).
        minimum_rounds = 0 if serving else 1
        if args.rounds < minimum_rounds:
            raise ValueError(
                f"--rounds must be >= {minimum_rounds} for fleet {args.mode}"
            )
        if args.rounds == 0 and (args.json_path or args.csv_path):
            raise ValueError(
                "--json/--csv need at least one round to report on "
                "(serve with --rounds >= 1)"
            )
        if not serving and (
            args.snapshot_dir or args.restore or args.snapshot_interval is not None
        ):
            raise ValueError("--snapshot-dir/--snapshot-interval/--restore "
                             "apply to fleet serve only")
        if args.restore and not args.snapshot_dir:
            raise ValueError("--restore needs --snapshot-dir")
        if args.restore and has_snapshot(args.snapshot_dir):
            scheduler, replay = recover_fleet(args.snapshot_dir)
            registry = scheduler.registry
            print(
                f"fleet restored from {args.snapshot_dir}: "
                f"{len(registry)} devices, {len(scheduler.rounds)} rounds, "
                f"journal replay applied {replay.applied} ingests "
                f"({replay.duplicates} duplicates, {replay.errors} errors, "
                f"{replay.rounds_applied} rounds)",
                file=out,
            )
        else:
            if args.restore:
                print(
                    f"no snapshot under {args.snapshot_dir} yet; "
                    "starting a fresh fleet",
                    file=out,
                )
            if args.mix:
                mix = FleetMix.parse(args.mix)
            else:
                mix = FleetMix.healthy_with_threats(0.95)
            registry = DeviceRegistry(
                args.design,
                alpha=args.alpha,
                suspect_after=args.suspect_after,
                fail_after=args.fail_after,
            )
            # A fleet may start empty (external devices register over HTTP);
            # populate() would reject zero devices.
            if args.devices > 0:
                registry.populate(args.devices, mix, seed=args.seed)
            scheduler = FleetScheduler(registry, streaming=args.streaming)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(
        f"fleet: {len(registry)} devices on {registry.design_name} "
        f"(n = {registry.n}, alpha = {registry.alpha}, seed = {args.seed})",
        file=out,
    )
    counts = registry.scenario_counts()
    print("mix: " + ", ".join(f"{label}: {count}" for label, count in counts.items()),
          file=out)
    if args.rounds > 0:
        for _ in range(args.rounds):
            fleet_round = scheduler.run_round()
            health = fleet_round.health
            print(
                f"round {fleet_round.index:>3}  healthy {health.get('healthy', 0):>5}  "
                f"suspect {health.get('suspect', 0):>4}  failed {health.get('failed', 0):>4}  "
                f"({fleet_round.devices_per_s:,.0f} devices/s)",
                file=out,
            )
        report = scheduler.report()
        print("", file=out)
        print(report.format_table(), file=out)
        rate = report.false_alarm_rate()
        shown = f"{rate:.3f}" if rate is not None else "n/a (no healthy controls)"
        print(f"healthy-device false-alarm rate: {shown}", file=out)
        throughput = report.devices_per_second()
        if throughput is not None:
            print(f"scheduler throughput: {throughput:,.0f} devices/s", file=out)
        if args.json_path:
            report.save_json(args.json_path)
            print(f"JSON report written to {args.json_path}", file=out)
        if args.csv_path:
            report.save_csv(args.csv_path)
            print(f"CSV summary written to {args.csv_path}", file=out)
    if serving:
        return _serve_fleet(args, scheduler, out)
    scheduler.close()
    return 0


def _serve_fleet(args, scheduler, out) -> int:
    """The ``fleet serve`` loop: durability, signals, graceful drain.

    The server runs on a worker thread while the main thread waits on a
    stop event set by SIGTERM/SIGINT (``server.shutdown()`` deadlocks when
    called from the ``serve_forever`` thread itself).  Shutdown drains
    in-flight ingests, writes a final snapshot when durability is on, and
    the exit code records whether the drain was clean (0) or dirty (3).
    """
    import signal
    import threading

    from repro.fleet import serve
    from repro.fleet.durability import DurableFleet
    from repro.fleet.service import MAX_BODY_BYTES

    _configure_service_logging(quiet=args.quiet)
    durable = None
    if args.snapshot_dir:
        durable = DurableFleet(
            scheduler,
            args.snapshot_dir,
            snapshot_interval_s=args.snapshot_interval,
            fsync_journal=args.wal_fsync,
        )
        durable.start()
        print(f"durability spool at {args.snapshot_dir} "
              f"(snapshot written, journal live)", file=out)
    server = serve(
        scheduler,
        host=args.host,
        port=args.port,
        max_body_bytes=args.max_body_bytes or MAX_BODY_BYTES,
        max_inflight_ingests=args.max_inflight,
        quarantine_after=args.quarantine_after,
    )
    service = server.service
    host, port = server.server_address
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        # Embedders (tests) may run this off the main thread, where signal
        # handlers cannot be installed; Ctrl-C still works via the
        # KeyboardInterrupt catch below.
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda _sig, _frame: stop.set())
    worker = threading.Thread(
        target=server.serve_forever, name="fleet-serve", daemon=True
    )
    worker.start()
    print(f"fleet service listening on http://{host}:{port}", file=out, flush=True)
    print("endpoints: POST /devices, POST /ingest, "
          "GET /devices/<id>/health, GET /fleet/summary, "
          "GET /metrics, GET /metrics.json", file=out, flush=True)
    clean = True
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    print("shutting down: draining in-flight ingests", file=out, flush=True)
    server.shutdown()
    worker.join()
    # New ingests are refused (503) from here; bounded wait for the rest.
    if not service.drain(timeout=10.0):
        clean = False
        print("warning: drain timed out with ingests still in flight", file=out)
    if durable is not None:
        try:
            durable.close(final_snapshot=True)
            print("final snapshot written", file=out)
        except Exception as exc:  # pragma: no cover - disk full etc.
            clean = False
            print(f"warning: final snapshot failed: {exc}", file=out)
    server.server_close()
    scheduler.close()
    print(f"fleet service stopped ({'clean' if clean else 'dirty'})", file=out)
    return 0 if clean else 3


def _cmd_chaos(args, out) -> int:
    """Run the fault-injection harness and report the recovery verdict."""
    from repro.fleet.chaos import ChaosConfig, run_chaos

    try:
        config = ChaosConfig(
            devices=args.devices,
            chunks_per_device=args.chunks,
            seed=args.seed,
            design=args.design,
            kill_after_acks=args.kill_after,
            drop_rate=args.drop,
            duplicate_rate=args.duplicate,
            reorder_rate=args.reorder,
            corrupt_rate=args.corrupt,
            snapshot_interval_s=args.snapshot_interval,
            streaming=args.streaming,
            workdir=args.workdir,
        )
        result = run_chaos(config, out=None if args.quiet else out)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    report = result.to_dict()
    if args.report:
        from repro.fleet.durability import atomic_write_json

        atomic_write_json(args.report, report)
        print(f"recovery report written to {args.report}", file=out)
    print(
        f"chaos: killed after {result.acks_before_kill} acks, "
        f"{result.faults_injected} faults injected, "
        f"restart replay applied {result.replay_applied} ingests "
        f"({result.replay_duplicates} duplicates)",
        file=out,
    )
    if result.matched:
        print("recovered fleet matches the uninterrupted control run "
              "(bit-identical per-device health)", file=out)
        return 0
    print("MISMATCH between recovered fleet and control run:", file=out)
    for line in result.mismatches[:20]:
        print(f"  {line}", file=out)
    return 1


def _cmd_metrics(args, out) -> int:
    """Run the wrapped workload (if any), then dump the metrics registry."""
    workload = list(args.workload)
    if workload and workload[0] == "--":
        workload = workload[1:]
    if workload and workload[0] == "metrics":
        print("error: the metrics command cannot wrap itself", file=out)
        return 2
    code = main(workload, out) if workload else 0
    if args.json_output:
        json.dump(obs.registry().snapshot(), out, indent=2)
        print("", file=out)
    else:
        print(obs.registry().render_text(), file=out, end="")
    return code


def _dispatch(args, out) -> int:
    if args.command == "designs":
        return _cmd_designs(out)
    if args.command == "evaluate":
        return _cmd_evaluate(args, out)
    if args.command == "monitor":
        return _cmd_monitor(args, out)
    if args.command == "suite":
        return _cmd_suite(args, out)
    if args.command == "batch":
        return _cmd_batch(args, out)
    if args.command == "campaign":
        return _cmd_campaign(args, out)
    if args.command == "fleet":
        return _cmd_fleet(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "lint":
        from repro.analysis.cli import run_from_args

        return run_from_args(args, out)
    if args.command == "metrics":
        return _cmd_metrics(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace_path", None)
    if trace_path:
        # Only this command's spans should land in the file, not whatever an
        # embedding process recorded before.
        obs.clear_traces()
    code = _dispatch(args, out)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"traces": obs.export_traces()}, handle, indent=2)
            handle.write("\n")
        print(f"trace written to {trace_path}", file=out)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
