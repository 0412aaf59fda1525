"""Tests for the experiment configurations and result reporting.

The heavy full-SOC comparison lives in the benchmark suite; here the setups
themselves are checked (which constraints each experiment applies), a reduced
two-experiment run exercises the flow end to end on the tiny SOC, and the
claim-evaluation/reporting code is tested on synthetic results.
"""


import pytest

from repro.api import TestSession
from repro.api.scenarios import TABLE1_DESCRIPTIONS, table1_scenario
from repro.atpg import AtpgOptions
from repro.atpg.compaction import CompactionStats
from repro.atpg.generator import AtpgResult, AtpgStatistics
from repro.core import (
    compare_with_paper,
    format_comparison,
    format_table1,
    results_as_records,
)
from repro.faults import FaultList
from repro.patterns import PatternSet, format_table, shape_checks, table_rows
from repro.faults.fault_list import CoverageReport


class TestExperimentSetups:
    def test_experiment_a_is_slow_and_observable(self, tiny_prepared):
        setup = table1_scenario("a").build_setup(tiny_prepared)
        assert setup.observe_pos
        assert not any(p.is_at_speed for p in setup.procedures)
        assert setup.max_pulses == 2

    def test_experiment_b_is_unconstrained_reference(self, tiny_prepared):
        setup = table1_scenario("b").build_setup(tiny_prepared)
        assert setup.observe_pos and not setup.hold_pis
        assert not setup.constrain_scan_enable
        assert setup.max_pulses == 4
        assert "tc" in setup.all_domains

    def test_experiment_c_is_simple_cpf(self, tiny_prepared):
        setup = table1_scenario("c").build_setup(tiny_prepared)
        assert not setup.observe_pos and setup.hold_pis
        assert setup.constrain_scan_enable
        assert setup.max_pulses == 2
        assert not setup.allows_inter_domain
        assert "tc" not in setup.all_domains
        # One procedure per functional domain, each pulsing a single domain.
        assert len(setup.procedures) == 2
        assert all(len(p.all_domains) == 1 for p in setup.procedures)

    def test_experiment_d_enhanced_cpf(self, tiny_prepared):
        setup = table1_scenario("d").build_setup(tiny_prepared)
        assert setup.max_pulses == 4
        assert setup.allows_inter_domain
        assert not setup.observe_pos

    def test_experiment_e_constrained_external(self, tiny_prepared):
        setup = table1_scenario("e").build_setup(tiny_prepared)
        assert not setup.observe_pos and setup.hold_pis
        assert setup.constrain_scan_enable
        # Both functional domains pulse together in every procedure.
        for procedure in setup.procedures:
            assert procedure.all_domains == frozenset({"fast", "slow"})

    def test_unknown_experiment_rejected(self, tiny_prepared):
        with pytest.raises(KeyError):
            table1_scenario("z")

    def test_reset_constrained_everywhere(self, tiny_prepared):
        for key in "abcde":
            setup = table1_scenario(key).build_setup(tiny_prepared)
            assert tiny_prepared.soc.reset_net in setup.pin_constraints


class TestReducedExperimentRun:
    def test_experiments_a_and_c_run_on_tiny_soc(self, tiny_prepared):
        options = AtpgOptions(random_pattern_batches=2, patterns_per_batch=32,
                              backtrack_limit=15)
        session = TestSession.from_prepared(tiny_prepared, options)
        session.add_scenarios("table1-a", "table1-c").run()
        result_a = session.result_of("table1-a")
        result_c = session.result_of("table1-c")
        assert result_a.coverage.detected > 0
        assert result_c.coverage.detected > 0
        # The constrained on-chip configuration cannot beat the slow external one.
        assert result_c.coverage.test_coverage <= result_a.coverage.test_coverage + 1e-9
        assert result_a.stats.unconfirmed_podem_tests == 0
        assert result_c.stats.unconfirmed_podem_tests == 0


def fake_result(name, coverage_percent, patterns):
    total = 1000
    detected = int(total * coverage_percent / 100)
    report = CoverageReport(
        total_faults=total,
        detected=detected,
        possibly_detected=0,
        atpg_untestable=total - detected,
        untestable=0,
        aborted=0,
        undetected=0,
    )
    return AtpgResult(
        setup_name=name,
        patterns=PatternSet([]),
        fault_list=FaultList([]),
        coverage=report,
        stats=AtpgStatistics(),
        compaction=CompactionStats(),
    )


def paperlike_results():
    """Synthetic results mirroring the paper's reported relations."""
    return {
        "a": fake_result("(a)", 98.7, 1000),
        "b": fake_result("(b)", 95.0, 4800),
        "c": fake_result("(c)", 87.5, 10500),
        "d": fake_result("(d)", 88.1, 10000),
        "e": fake_result("(e)", 88.4, 8400),
    }


class _PatternCountPatch:
    """AtpgResult.pattern_count reads len(patterns); patch via dummy patterns."""

    @staticmethod
    def apply(results, counts):
        from repro.clocking import CapturePulse, NamedCaptureProcedure
        from repro.patterns import TestPattern

        proc = NamedCaptureProcedure(name="p", pulses=(CapturePulse.of("x"),))
        for key, count in counts.items():
            results[key].patterns.extend(
                TestPattern(procedure=proc) for _ in range(count)
            )


class TestReporting:
    def make_results(self):
        results = paperlike_results()
        _PatternCountPatch.apply(
            results, {"a": 10, "b": 48, "c": 105, "d": 100, "e": 84}
        )
        return results

    def test_all_paper_claims_hold_on_paperlike_numbers(self):
        results = self.make_results()
        checks = compare_with_paper(results)
        assert all(check.holds for check in checks)
        text = format_comparison(results)
        assert "7/7" in text

    def test_table_formatting(self):
        results = self.make_results()
        table = format_table1(results)
        for key in "abcde":
            assert TABLE1_DESCRIPTIONS[key][:20] in table
        rows = table_rows(results, TABLE1_DESCRIPTIONS)
        assert len(rows) == 5
        assert "Table 1" in format_table(rows)

    def test_shape_checks_summary(self):
        results = self.make_results()
        checks = shape_checks(results)
        assert checks.stuck_at_above_transition
        assert checks.enhanced_cpf_recovers_coverage
        assert checks.transition_patterns_factor_over_stuck_at == pytest.approx(4.8)

    def test_records_serializable(self):
        records = results_as_records(self.make_results())
        assert len(records) == 5
        assert all("test_coverage_percent" in r for r in records)

    def test_missing_experiment_raises(self):
        results = self.make_results()
        del results["e"]
        with pytest.raises(KeyError):
            compare_with_paper(results)
