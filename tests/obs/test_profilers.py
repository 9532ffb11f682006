"""Observability observers: timeline, hot spots, cache events, regions."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core import EnergyMacroModel, EnergyProfiler, default_template
from repro.obs import (
    CacheEventObserver,
    EnergyTimelineObserver,
    HotSpotObserver,
    ObserverStateError,
    TraceObserver,
    run_session,
)
from tests.stats_oracle import stats_from_records

LOOPY = """
    .data
buf: .word 1, 2, 3, 4, 5, 6, 7, 8
out: .word 0
    .text
main:
    la a2, buf
    movi a3, 8
    movi a4, 0
accumulate:
    l32i a5, a2, 0
    add a4, a4, a5      ; load-use interlock
    addi a2, a2, 4
    addi a3, a3, -1
    bnez a3, accumulate
finish:
    la a6, out
    s32i a4, a6, 0
    halt
"""


@pytest.fixture(scope="module")
def model():
    template = default_template()
    return EnergyMacroModel(template, np.linspace(50, 5000, len(template)))


@pytest.fixture(scope="module")
def loopy_program(base_config):
    return assemble(LOOPY, "loopy", isa=base_config.isa)


class TestEnergyTimeline:
    def test_intervals_partition_the_run(self, model, base_config, loopy_program):
        observer = EnergyTimelineObserver(model, interval_instructions=10)
        result = run_session(base_config, loopy_program, observers=(observer,))
        report = observer.report
        assert sum(iv.instructions for iv in report.intervals) == (
            result.stats.total_instructions
        )
        assert sum(iv.cycles for iv in report.intervals) == result.stats.total_cycles
        # linearity: interval energies sum to the whole-run estimate
        whole = model.estimate_from_stats(result.stats, base_config)
        assert report.total_energy == pytest.approx(whole)

    def test_interval_sizing(self, model, base_config, loopy_program):
        observer = EnergyTimelineObserver(model, interval_instructions=10)
        run_session(base_config, loopy_program, observers=(observer,))
        intervals = observer.report.intervals
        assert all(iv.instructions == 10 for iv in intervals[:-1])
        assert 1 <= intervals[-1].instructions <= 10
        starts = [iv.start_instruction for iv in intervals]
        assert starts == sorted(starts)

    def test_rejects_bad_interval(self, model):
        with pytest.raises(ValueError, match="interval_instructions"):
            EnergyTimelineObserver(model, interval_instructions=0)

    def test_report_before_run_raises(self, model):
        with pytest.raises(ObserverStateError):
            EnergyTimelineObserver(model).report

    def test_table_and_payload(self, model, base_config, loopy_program):
        observer = EnergyTimelineObserver(model, interval_instructions=10)
        run_session(base_config, loopy_program, observers=(observer,))
        report = observer.report
        assert "energy timeline" in report.table()
        payload = report.to_payload()
        assert payload["program"] == "loopy"
        assert len(payload["intervals"]) == len(report.intervals)


class TestHotSpots:
    def test_block_and_pc_histograms(self, base_config, loopy_program):
        observer = HotSpotObserver()
        result = run_session(base_config, loopy_program, observers=(observer,))
        report = observer.report
        by_label = {spot.location: spot for spot in report.blocks}
        assert by_label["accumulate"].count == 5 * 8  # 5 instructions x 8 iterations
        assert by_label["main"].count == 4  # la expands to two instructions
        assert report.blocks[0].location == "accumulate"  # hottest first
        assert sum(spot.count for spot in report.pcs) == result.stats.total_instructions
        assert sum(spot.cycles for spot in report.pcs) == result.stats.total_cycles

    def test_pc_offsets_labelled(self, base_config, loopy_program):
        observer = HotSpotObserver()
        run_session(base_config, loopy_program, observers=(observer,))
        locations = {spot.location for spot in observer.report.pcs}
        assert "accumulate" in locations  # block start
        assert any(loc.startswith("accumulate+0x") for loc in locations)

    def test_report_before_run_raises(self):
        with pytest.raises(ObserverStateError):
            HotSpotObserver().report


class TestCacheEvents:
    def test_counts_match_run_stats(self, base_config, loopy_program):
        observer = CacheEventObserver()
        result = run_session(base_config, loopy_program, observers=(observer,))
        report = observer.report
        assert report.icache_misses == result.stats.icache_misses
        assert report.dcache_misses == result.stats.dcache_misses
        assert report.uncached_fetches == result.stats.uncached_fetches
        assert report.interlocks == result.stats.interlocks
        assert report.interlocks > 0  # the loop has a load-use hazard
        assert sum(n for _, n in report.hot_dcache_lines) == report.dcache_misses

    def test_report_before_run_raises(self):
        with pytest.raises(ObserverStateError):
            CacheEventObserver().report


class TestRegionObserverEquivalence:
    def test_streaming_regions_match_trace_bucketing(
        self, model, base_config, loopy_program
    ):
        """The streaming region profile equals the old trace-bucketing math."""
        from repro.core import regions_from_symbols

        report = EnergyProfiler(model).profile(base_config, loopy_program)

        tracer = TraceObserver()
        traced = run_session(base_config, loopy_program, observers=(tracer,))
        regions = sorted(
            regions_from_symbols(loopy_program), key=lambda region: region.start
        )
        for profile in report.regions:
            region = next(r for r in regions if r.name == profile.name)
            records = [rec for rec in tracer.records if rec.addr in region]
            stats = stats_from_records(records, base_config)
            assert profile.instructions == stats.total_instructions
            assert profile.cycles == stats.total_cycles
            assert profile.energy == pytest.approx(
                model.estimate_from_stats(stats, base_config)
            )
        whole = model.estimate_from_stats(traced.stats, base_config)
        assert report.total_energy == pytest.approx(whole)

    def test_composes_with_other_observers_in_one_run(
        self, model, base_config, loopy_program
    ):
        profiler = EnergyProfiler(model)
        region_observer = profiler.observer(loopy_program)
        timeline = EnergyTimelineObserver(model, interval_instructions=10)
        hot = HotSpotObserver()
        cache = CacheEventObserver()
        run_session(
            base_config,
            loopy_program,
            observers=(region_observer, timeline, hot, cache),
        )
        report = profiler.report_from(region_observer, base_config, loopy_program)
        assert report.total_energy == pytest.approx(timeline.report.total_energy)
        assert cache.report.interlocks > 0
        assert hot.report.blocks
