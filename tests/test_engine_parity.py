"""Golden engine/reference parity tests.

The acceptance bar of the engine refactor: every test run through a
``SequenceContext`` (solo or batch-backed, batched or inline) must produce
*bit-identical* ``TestResult.p_values`` to the pre-existing direct reference
functions, on ideal, biased and correlated sources alike.
"""

import numpy as np
import pytest

from repro.engine import DEFAULT_REGISTRY, SequenceContext, run_batch
from repro.fips.battery import (
    FIPS_BLOCK_BITS,
    FipsBattery,
    fips_battery,
    long_run_test_from_context,
    monobit_test_from_context,
    poker_test_from_context,
    runs_test_from_context,
)
from repro.nist.approximate_entropy import approximate_entropy_test
from repro.nist.block_frequency import block_frequency_test
from repro.nist.cusum import cumulative_sums_test
from repro.nist.dft import dft_test
from repro.nist.frequency import frequency_test
from repro.nist.linear_complexity import linear_complexity_test
from repro.nist.longest_run import longest_run_test
from repro.nist.nonoverlapping import non_overlapping_template_test
from repro.nist.overlapping import overlapping_template_test
from repro.nist.random_excursions import random_excursions_test
from repro.nist.random_excursions_variant import random_excursions_variant_test
from repro.nist.rank import binary_matrix_rank_test
from repro.nist.runs import runs_test
from repro.nist.serial import serial_test
from repro.nist.suite import NistSuite
from repro.nist.universal import universal_test
from repro.trng import BiasedSource, CorrelatedSource, IdealSource

#: The direct reference entry points, by NIST number (the golden model).
REFERENCE_TESTS = {
    1: frequency_test,
    2: block_frequency_test,
    3: runs_test,
    4: longest_run_test,
    5: binary_matrix_rank_test,
    6: dft_test,
    7: non_overlapping_template_test,
    8: overlapping_template_test,
    9: universal_test,
    10: linear_complexity_test,
    11: serial_test,
    12: approximate_entropy_test,
    13: cumulative_sums_test,
    14: random_excursions_test,
    15: random_excursions_variant_test,
}

N = 16384


def _sources():
    return {
        "ideal": IdealSource(seed=1111),
        "biased": BiasedSource(0.55, seed=2222),
        "correlated": CorrelatedSource(0.75, seed=3333),
    }


@pytest.fixture(scope="module")
def golden_sequences():
    """One fixed sequence per source kind."""
    return {name: source.generate(N).bits for name, source in _sources().items()}


@pytest.fixture(scope="module")
def reference_outcomes(golden_sequences):
    """Reference results and errors per source, straight from the golden model."""
    outcomes = {}
    for name, bits in golden_sequences.items():
        results, errors = {}, {}
        for number, reference in REFERENCE_TESTS.items():
            try:
                results[number] = reference(bits)
            except ValueError as exc:
                errors[number] = str(exc)
        outcomes[name] = (results, errors)
    return outcomes


def _assert_identical(result, reference, label):
    assert result.p_values == reference.p_values, label
    assert result.statistic == reference.statistic, label
    assert result.p_value == reference.p_value, label
    assert result.name == reference.name, label


class TestContextParity:
    """Registry runners on a solo SequenceContext vs direct reference calls."""

    @pytest.mark.parametrize("source_name", ["ideal", "biased", "correlated"])
    def test_all_tests_bit_identical(self, golden_sequences, reference_outcomes, source_name):
        bits = golden_sequences[source_name]
        results, errors = reference_outcomes[source_name]
        context = SequenceContext(bits)
        for number in REFERENCE_TESTS:
            test = DEFAULT_REGISTRY.resolve(number)
            if number in errors:
                with pytest.raises(ValueError):
                    test.run(context)
            else:
                _assert_identical(test.run(context), results[number], (source_name, number))

    def test_error_messages_identical(self, golden_sequences, reference_outcomes):
        bits = golden_sequences["ideal"]
        _, errors = reference_outcomes["ideal"]
        context = SequenceContext(bits)
        for number, message in errors.items():
            test = DEFAULT_REGISTRY.resolve(number)
            with pytest.raises(ValueError) as excinfo:
                test.run(context)
            assert str(excinfo.value) == message


class TestBatchParity:
    """run_batch (shared BatchContext) vs direct reference calls."""

    def test_batch_bit_identical_across_sources(self, golden_sequences, reference_outcomes):
        names = list(golden_sequences)
        reports = run_batch([golden_sequences[name] for name in names])
        for name, report in zip(names, reports):
            results, errors = reference_outcomes[name]
            for number in REFERENCE_TESTS:
                test_id = DEFAULT_REGISTRY.resolve(number).id
                if number in errors:
                    assert report.errors[test_id] == errors[number]
                else:
                    _assert_identical(
                        report.results[test_id], results[number], (name, number)
                    )

    @pytest.mark.parametrize("source_name", ["ideal", "biased", "correlated", "short"])
    def test_single_sequence_bit_identical(
        self, golden_sequences, reference_outcomes, source_name
    ):
        """One sequence is a one-row batch: run_batch and NistSuite.run give
        the reference results and the reference error strings."""
        if source_name == "short":
            bits = IdealSource(seed=4444).generate(1000).bits
            results, errors = {}, {}
            for number, reference in REFERENCE_TESTS.items():
                try:
                    results[number] = reference(bits)
                except ValueError as exc:
                    errors[number] = str(exc)
            assert {5, 9} <= set(errors)  # rank and universal reject 1000 bits
        else:
            bits = golden_sequences[source_name]
            results, errors = reference_outcomes[source_name]
        (report,) = run_batch([bits])
        suite_report = NistSuite().run(bits)
        for number in REFERENCE_TESTS:
            test_id = DEFAULT_REGISTRY.resolve(number).id
            if number in errors:
                assert report.errors[test_id] == errors[number]
                assert suite_report.errors[number] == errors[number]
            else:
                label = (source_name, number)
                _assert_identical(report.results[test_id], results[number], label)
                _assert_identical(suite_report.results[number], results[number], label)

    def test_mixed_lengths_raise(self):
        short = IdealSource(seed=777).generate(1024).bits
        long = IdealSource(seed=778).generate(2048).bits
        with pytest.raises(ValueError, match=r"lengths \[1024, 2048\]"):
            run_batch([short, long, short], tests=[1, 3, 13])
        with pytest.raises(ValueError, match=r"lengths \[1024, 2048\]"):
            NistSuite(tests=[1]).run_batch([long, short])

    def test_suite_run_batch_matches_suite_run(self, golden_sequences):
        suite = NistSuite(
            tests=[1, 2, 3, 4, 7, 8, 11, 12, 13],
            parameters={2: {"block_length": 256}, 11: {"m": 5}},
        )
        sequences = list(golden_sequences.values())
        batch_reports = suite.run_batch(sequences)
        for bits, batch_report in zip(sequences, batch_reports):
            solo_report = suite.run(bits)
            assert solo_report.p_values() == batch_report.p_values()
            for number in suite.tests:
                _assert_identical(
                    batch_report.results[number], solo_report.results[number], number
                )


class TestFipsParity:
    """FIPS battery via engine contexts vs the direct reference functions."""

    @pytest.fixture(scope="class")
    def fips_blocks(self):
        return {
            name: source.generate(FIPS_BLOCK_BITS).bits
            for name, source in _sources().items()
        }

    def test_context_tests_match_reference(self, fips_blocks):
        for name, block in fips_blocks.items():
            context = SequenceContext(block)
            reference = fips_battery(block)
            engine_results = [
                monobit_test_from_context(context),
                poker_test_from_context(context),
                runs_test_from_context(context),
                long_run_test_from_context(context),
            ]
            for engine_result, reference_result in zip(engine_results, reference.results):
                assert engine_result == reference_result, (name, reference_result.name)

    def test_battery_single_block_matches_reference(self, fips_blocks):
        for block in fips_blocks.values():
            assert FipsBattery().run(block) == fips_battery(block)
            assert FipsBattery().run_batch([block]) == [fips_battery(block)]
        short = fips_blocks["ideal"][:100]
        with pytest.raises(ValueError) as expected:
            fips_battery(short)
        for run in (FipsBattery().run, lambda bits: FipsBattery().run_batch([bits])):
            with pytest.raises(ValueError) as excinfo:
                run(short)
            assert str(excinfo.value) == str(expected.value)

    def test_battery_run_batch_matches_reference(self, fips_blocks):
        blocks = list(fips_blocks.values())
        for block, report in zip(blocks, FipsBattery().run_batch(blocks)):
            assert report == fips_battery(block)

    def test_registry_exposes_fips_as_test_results(self, fips_blocks):
        report = run_batch(
            [fips_blocks["correlated"]],
            tests=["fips.monobit", "fips.poker", "fips.runs", "fips.long_run"],
        )[0]
        reference = fips_battery(fips_blocks["correlated"])
        for test_id, reference_result in zip(
            ["fips.monobit", "fips.poker", "fips.runs", "fips.long_run"],
            reference.results,
        ):
            result = report.results[test_id]
            assert result.statistic == reference_result.statistic
            assert result.passed() == reference_result.passed
