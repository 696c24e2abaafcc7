"""Tests of the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.trng import CaptureSource, IdealSource


def run_cli(argv):
    """Run the CLI capturing its output; returns (exit_code, text)."""
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("designs", "evaluate", "monitor", "campaign"):
            assert parser.parse_args([command]).command == command
        assert parser.parse_args(["fleet", "run"]).command == "fleet"

    def test_source_help_lists_scenario_labels(self, monkeypatch):
        """Every registered catalogue scenario is documented in --help."""
        from repro.campaign import DEFAULT_CATALOG

        # argparse wraps help to the terminal width and breaks on hyphens,
        # which would split labels like "freq-injection"; format wide.
        monkeypatch.setenv("COLUMNS", "500")
        parser = build_parser()
        subcommands = parser._subparsers._group_actions[0].choices
        for name in ("evaluate", "monitor"):
            help_text = subcommands[name].format_help()
            assert "scenario:<label>" in help_text
            for label in DEFAULT_CATALOG.labels():
                assert label in help_text, f"{label} missing from {name} --help"

    def test_suite_requires_capture(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite"])


class TestDesignsCommand:
    def test_lists_all_eight_designs(self):
        code, text = run_cli(["designs"])
        assert code == 0
        for name in ("n128_light", "n65536_high", "n1048576_high"):
            assert name in text


class TestEvaluateCommand:
    def test_ideal_simulated_source_passes(self):
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--source", "ideal", "--seed", "3"]
        )
        assert code == 0
        assert "PASS" in text

    def test_stuck_source_fails_with_exit_code_one(self):
        code, text = run_cli(["evaluate", "--design", "n128_light", "--source", "stuck"])
        assert code == 1
        assert "FAIL" in text

    def test_biased_source_with_parameter(self):
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--source", "biased",
             "--parameter", "0.9", "--seed", "1"]
        )
        assert code == 1

    def test_capture_file_evaluation(self, tmp_path):
        capture = CaptureSource(IdealSource(seed=11))
        capture.generate(128)
        path = tmp_path / "trng.bin"
        capture.save(path)
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--capture", str(path)]
        )
        assert code in (0, 1)
        assert "n128_light" in text

    def test_capture_too_short_is_an_error(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x55" * 4)  # 32 bits only
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--capture", str(path)]
        )
        assert code == 2
        assert "error" in text

    def test_scenario_source_reaches_catalogue_threats(self):
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--source", "scenario:wire-cut"]
        )
        assert code == 1
        assert "DeadSource" in text and "FAIL" in text

    def test_scenario_source_healthy_control(self):
        code, text = run_cli(
            ["evaluate", "--design", "n128_light",
             "--source", "scenario:healthy-ideal", "--seed", "3"]
        )
        assert code == 0
        assert "PASS" in text

    def test_unknown_scenario_label_is_an_error(self):
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--source", "scenario:bogus"]
        )
        assert code == 2
        assert "unknown scenario" in text and "wire-cut" in text

    def test_unknown_source_is_an_error(self):
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--source", "bogus"]
        )
        assert code == 2
        assert "unknown simulated source" in text

    def test_stuck_invalid_parameter_is_an_error(self):
        """Regression: --parameter 0.5 used to be silently coerced to a
        stuck-at-0 source; now it is rejected with a clear message."""
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--source", "stuck",
             "--parameter", "0.5"]
        )
        assert code == 2
        assert "stuck source needs --parameter 0 or 1" in text

    def test_stuck_parameter_one_is_honoured(self):
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--source", "stuck",
             "--parameter", "1"]
        )
        assert code == 1
        assert "FAIL" in text


class TestMonitorCommand:
    def test_monitor_ideal_source(self):
        code, text = run_cli(
            ["monitor", "--design", "n128_light", "--source", "ideal",
             "--sequences", "3", "--seed", "5"]
        )
        assert code in (0, 1)
        assert "final state" in text

    def test_monitor_dead_source_reports_failure(self):
        code, text = run_cli(
            ["monitor", "--design", "n128_light", "--source", "stuck", "--sequences", "3"]
        )
        assert code == 1
        assert "failed" in text

    def test_recovered_blip_exits_zero(self):
        """Regression: the exit code used to be keyed off failure_rate() > 0,
        so a healthy source losing one sequence at rate ~alpha made the whole
        monitoring run report failure.  Seed 1 fails exactly one of eight
        sequences and recovers; the final HealthState (and exit code) must be
        healthy."""
        code, text = run_cli(
            ["monitor", "--design", "n128_light", "--source", "ideal",
             "--sequences", "8", "--seed", "1"]
        )
        assert "fail" in text  # the blip really happened...
        assert "final state: healthy" in text  # ...and was recovered from
        assert code == 0

    def test_suspect_final_state_exits_nonzero(self):
        """A run that *ends* degraded (dead source, one sequence => SUSPECT
        under suspect_after=1) keeps a non-zero exit code."""
        code, text = run_cli(
            ["monitor", "--design", "n128_light", "--source", "stuck", "--sequences", "1"]
        )
        assert code == 1
        assert "final state: suspect" in text

    def test_monitor_scenario_source(self):
        code, text = run_cli(
            ["monitor", "--design", "n128_light",
             "--source", "scenario:stuck-at-1", "--sequences", "3"]
        )
        assert code == 1
        assert "final state: failed" in text

    def test_monitor_stuck_invalid_parameter_is_an_error(self):
        code, text = run_cli(
            ["monitor", "--source", "stuck", "--parameter", "2", "--sequences", "1"]
        )
        assert code == 2
        assert "stuck source needs --parameter 0 or 1" in text


class TestFleetCommand:
    def run_small(self, *extra):
        return run_cli(
            ["fleet", "run", "--devices", "24", "--rounds", "3",
             "--design", "n128_light", "--seed", "9",
             "--mix", "healthy-ideal:0.8,wire-cut:0.1,biased-0.70:0.1", *extra]
        )

    def test_fleet_run_reports_rounds_and_table(self):
        code, text = self.run_small()
        assert code == 0
        assert "fleet: 24 devices on n128_light" in text
        assert "round   0" in text and "round   2" in text
        assert "wire-cut" in text and "detect_prob" in text
        assert "healthy-device false-alarm rate" in text
        assert "devices/s" in text

    def test_fleet_run_reproducible_modulo_timing(self):
        import re

        def strip_timing(text):
            return re.sub(r"[\d,.]+ devices/s", "<rate>", text)

        first = self.run_small()
        second = self.run_small()
        assert first[0] == second[0] == 0
        assert strip_timing(first[1]) == strip_timing(second[1])

    def test_fleet_json_and_csv_export(self, tmp_path):
        import json

        json_path = tmp_path / "fleet.json"
        csv_path = tmp_path / "fleet.csv"
        code, text = self.run_small("--json", str(json_path), "--csv", str(csv_path))
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["config"]["num_devices"] == 24
        assert len(data["rounds"]) == 3
        assert csv_path.read_text().splitlines()[0].startswith("scenario,category,")

    def test_fleet_unknown_design_is_an_error(self):
        code, text = run_cli(["fleet", "run", "--design", "bogus", "--devices", "4"])
        assert code == 2
        assert "error" in text

    def test_fleet_bad_mix_is_an_error(self):
        code, text = run_cli(
            ["fleet", "run", "--devices", "4", "--mix", "not-a-threat:1.0"]
        )
        assert code == 2
        assert "error" in text

    def test_fleet_run_zero_rounds_is_an_error(self):
        """Regression: `fleet run --rounds 0` used to succeed silently with
        no report and no --json/--csv artifacts."""
        code, text = run_cli(["fleet", "run", "--devices", "4", "--rounds", "0"])
        assert code == 2
        assert "--rounds must be >= 1" in text

    def test_fleet_serve_zero_rounds_with_export_is_an_error(self):
        """Regression: serve --rounds 0 --json silently wrote no artifact."""
        code, text = run_cli(
            ["fleet", "serve", "--devices", "4", "--rounds", "0",
             "--json", "/tmp/never-written.json"]
        )
        assert code == 2
        assert "at least one round" in text


class TestCampaignCommand:
    def run_small(self, *extra):
        return run_cli(
            ["campaign", "--designs", "n128_light,n128_medium",
             "--scenarios", "healthy-ideal,wire-cut,alternating,biased-0.70",
             "--trials", "1", "--sequences", "4", "--seed", "7", *extra]
        )

    def test_campaign_emits_detection_table(self):
        code, text = self.run_small()
        assert code == 0
        assert "detect_prob" in text and "latency_bits" in text
        assert "wire-cut" in text and "alternating" in text
        assert "per-test attribution" in text
        assert "healthy-control false-alarm rate [n128_light]" in text
        assert "healthy-control false-alarm rate [n128_medium]" in text

    def test_campaign_reproducible_under_fixed_seed(self):
        first = self.run_small()
        second = self.run_small()
        assert first == second

    def test_campaign_json_and_csv_export(self, tmp_path):
        import csv as csv_module
        import json

        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "summary.csv"
        code, text = self.run_small("--json", str(json_path), "--csv", str(csv_path))
        assert code == 0
        data = json.loads(json_path.read_text())
        assert len(data["cells"]) == 2 * 4
        assert data["config"]["seed"] == 7
        with open(csv_path) as handle:
            rows = list(csv_module.DictReader(handle))
        assert len(rows) == 2 * 4
        assert {row["scenario"] for row in rows} == {
            "healthy-ideal", "wire-cut", "alternating", "biased-0.70",
        }

    def test_campaign_category_selector(self):
        code, text = run_cli(
            ["campaign", "--designs", "n128_light", "--scenarios", "failure",
             "--trials", "1", "--sequences", "4"]
        )
        assert code == 0
        assert "wire-cut" in text and "stuck-at-1" in text
        assert "healthy-ideal" not in text

    def test_campaign_unknown_design_is_an_error(self):
        code, text = run_cli(["campaign", "--designs", "bogus", "--trials", "1"])
        assert code == 2
        assert "error" in text

    def test_campaign_unknown_scenario_is_an_error(self):
        code, text = run_cli(
            ["campaign", "--designs", "n128_light", "--scenarios", "bogus-threat"]
        )
        assert code == 2
        assert "error" in text


class TestSuiteCommand:
    def test_reference_suite_on_capture(self, tmp_path):
        capture = CaptureSource(IdealSource(seed=12))
        capture.generate(4096)
        path = tmp_path / "long.bin"
        capture.save(path)
        code, text = run_cli(["suite", str(path), "--alpha", "0.001"])
        assert code in (0, 1)
        assert "Frequency (Monobit) Test" in text
        assert "skipped" in text  # the universal test cannot run on 4096 bits

    def test_suite_bits_flag_drops_byte_padding(self, tmp_path):
        """Regression: an odd-length capture replayed its zero-pad bits as
        data; --bits (the count returned by save) restores the exact stream."""
        capture = CaptureSource(IdealSource(seed=13))
        capture.generate(2052)
        path = tmp_path / "odd.bin"
        bit_count = capture.save(path)
        assert bit_count == 2052
        code, text = run_cli(["suite", str(path), "--bits", "2052"])
        assert code in (0, 1)
        assert "(2052 bits)" in text
        code, text = run_cli(["suite", str(path)])
        assert "(2056 bits)" in text  # without --bits the padding is data

    def test_suite_invalid_bits_is_an_error(self, tmp_path):
        path = tmp_path / "cap.bin"
        path.write_bytes(b"\xAA" * 16)
        code, text = run_cli(["suite", str(path), "--bits", "1000"])
        assert code == 2
        assert "error" in text

    def test_evaluate_capture_with_bits(self, tmp_path):
        capture = CaptureSource(IdealSource(seed=14))
        capture.generate(130)
        path = tmp_path / "cap.bin"
        bit_count = capture.save(path)
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--capture", str(path),
             "--bits", str(bit_count)]
        )
        assert code in (0, 1)
        code, text = run_cli(
            ["evaluate", "--design", "n128_light", "--capture", str(path),
             "--bits", "999"]
        )
        assert code == 2
        assert "error" in text


class TestStreamingFlags:
    """--streaming wiring: path banner, flag validation, fleet mode."""

    def test_monitor_streaming_runs_and_prints_the_path(self):
        code, text = run_cli(
            ["monitor", "--design", "n128_light", "--source", "ideal",
             "--sequences", "3", "--seed", "5", "--streaming"]
        )
        assert code in (0, 1)
        assert "streaming packed-ring window roll (--streaming)" in text
        assert "final state" in text

    def test_monitor_streaming_matches_pull_loop_output(self):
        base = ["monitor", "--design", "n128_light", "--source", "ideal",
                "--sequences", "4", "--seed", "7"]
        code_pull, text_pull = run_cli(base)
        code_stream, text_stream = run_cli(base + ["--streaming"])
        assert code_pull == code_stream
        # Per-sequence verdict lines are identical; only the path banner differs.
        pull_lines = [l for l in text_pull.splitlines() if l.startswith("sequence")]
        stream_lines = [l for l in text_stream.splitlines() if l.startswith("sequence")]
        assert pull_lines == stream_lines

    def test_monitor_streaming_with_stride_and_history(self):
        code, text = run_cli(
            ["monitor", "--design", "n128_light", "--source", "ideal",
             "--sequences", "4", "--seed", "5", "--streaming",
             "--stride", "64", "--history-bits", "256"]
        )
        assert code in (0, 1)
        assert "final state" in text

    def test_stride_without_streaming_is_an_error(self):
        code, text = run_cli(
            ["monitor", "--source", "ideal", "--sequences", "2", "--stride", "64"]
        )
        assert code == 2
        assert "--stride/--history-bits require --streaming" in text

    def test_history_bits_without_streaming_is_an_error(self):
        code, text = run_cli(
            ["monitor", "--source", "ideal", "--sequences", "2",
             "--history-bits", "256"]
        )
        assert code == 2

    def test_streaming_conflicts_with_rtl_fidelity(self):
        code, text = run_cli(
            ["monitor", "--source", "ideal", "--sequences", "2",
             "--streaming", "--rtl-fidelity"]
        )
        assert code == 2
        assert "cannot drive the bit-serial" in text

    def test_history_bits_below_window_is_an_error(self):
        code, text = run_cli(
            ["monitor", "--design", "n128_light", "--source", "ideal",
             "--sequences", "2", "--streaming", "--history-bits", "64"]
        )
        assert code == 2
        assert "history_bits must be at least" in text

    def test_fleet_run_streaming_mode(self):
        code, text = run_cli(
            ["fleet", "run", "--devices", "16", "--rounds", "2", "--seed", "9",
             "--streaming",
             "--mix", "healthy-ideal:0.9,wire-cut:0.1"]
        )
        assert code == 0
        assert "fleet: 16 devices on n128_light" in text
        assert "wire-cut" in text
