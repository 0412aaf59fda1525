"""Tests for the Table 1 flow through a session and figure-level waveform helpers."""

import pytest

from repro.api import TestSession
from repro.atpg import AtpgOptions
from repro.clocking import figure2_waveform
from repro.core import format_table1


@pytest.fixture(scope="module")
def quick_flow():
    options = AtpgOptions(random_pattern_batches=2, patterns_per_batch=24, backtrack_limit=10)
    return TestSession(size=1, seed=17, num_chains=4, options=options)


class TestDelayTestFlow:
    """The Table 1 flow driven scenario by scenario through a session."""

    def test_run_single_experiment_and_cache(self, quick_flow):
        quick_flow.run_scenario("table1-a")
        first = quick_flow.result_of("table1-a")
        assert quick_flow.result_of("table1-a") is first
        assert first.coverage.detected > 0

    def test_run_all_reuses_cached_results(self, quick_flow, tmp_path):
        names = ("table1-a", "table1-c")
        quick_flow.with_cache(tmp_path / "cache").add_scenarios(*names)
        cold = quick_flow.run()
        assert [quick_flow.artifacts[n].cache_info["hit"] for n in names] == [False, False]
        warm = quick_flow.run()
        assert [quick_flow.artifacts[n].cache_info["hit"] for n in names] == [True, True]
        assert warm.same_results(cold)

    def test_table_formatting_from_flow(self, quick_flow):
        for key in "ac":
            quick_flow.run_scenario(f"table1-{key}")
        table = format_table1({key: quick_flow.result_of(f"table1-{key}") for key in "ac"})
        assert "Stuck-at" in table
        assert "%" in table


class TestFigure2Waveform:
    def test_waveform_has_per_domain_bursts(self, tiny_prepared):
        domains = tiny_prepared.soc.functional_domains
        waveform = figure2_waveform(domains, shift_cycles=4, pulses_per_domain=2)
        assert "scan_clk" in waveform.signals()
        assert "scan_en" in waveform.signals()
        for domain in domains:
            assert waveform[f"clk_{domain.name}"].count_pulses() == 2

    def test_scan_enable_frames_the_capture_window(self, tiny_prepared):
        domains = tiny_prepared.soc.functional_domains
        waveform = figure2_waveform(domains, shift_cycles=4)
        scan_en = waveform["scan_en"]
        fall = scan_en.falling_edges()[0]
        rise = scan_en.rising_edges()[0]
        assert fall < rise
        for domain in domains:
            for pulse in waveform[f"clk_{domain.name}"].pulses():
                assert fall < pulse.start < rise

    def test_pulse_spacing_tracks_frequency(self, tiny_prepared):
        domains = sorted(tiny_prepared.soc.functional_domains, key=lambda d: d.frequency_mhz)
        waveform = figure2_waveform(domains)
        slow, fast = domains[0], domains[-1]
        slow_edges = waveform[f"clk_{slow.name}"].rising_edges()
        fast_edges = waveform[f"clk_{fast.name}"].rising_edges()
        assert (fast_edges[1] - fast_edges[0]) < (slow_edges[1] - slow_edges[0])

    def test_ascii_rendering_works(self, tiny_prepared):
        domains = tiny_prepared.soc.functional_domains
        waveform = figure2_waveform(domains)
        art = waveform.to_ascii(width=60)
        assert len(art.splitlines()) == len(waveform.signals())
