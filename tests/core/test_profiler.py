"""Energy profiler tests: exact decomposition, region derivation, reports."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core import (
    CodeRegion,
    EnergyMacroModel,
    EnergyProfiler,
    default_template,
    regions_from_symbols,
)
from repro.obs import TraceObserver, run_session
from repro.xtcore import build_processor
from tests.stats_oracle import stats_from_records

TWO_PHASE = """
    .data
arr: .word 5, 9, 2, 7, 1, 8, 3, 6
out: .word 0
    .text
main:
    call sum_phase
    call scale_phase
    la a2, out
    s32i a6, a2, 0
    halt
sum_phase:
    la a2, arr
    movi a3, 8
    movi a6, 0
sp_loop:
    l32i a4, a2, 0
    add a6, a6, a4
    addi a2, a2, 4
    addi a3, a3, -1
    bnez a3, sp_loop
    ret
scale_phase:
    movi a3, 30
sc_loop:
    slli a6, a6, 1
    srli a6, a6, 1
    addi a3, a3, -1
    bnez a3, sc_loop
    ret
"""


@pytest.fixture(scope="module")
def model():
    template = default_template()
    # synthetic but physical coefficients: the decomposition property is
    # purely structural and holds for any coefficient vector
    return EnergyMacroModel(template, np.linspace(100, 2100, len(template)))


@pytest.fixture(scope="module")
def setup(model):
    config = build_processor("profiler-test")
    program = assemble(TWO_PHASE, "two_phase", isa=config.isa)
    return config, program


class TestRegionDerivation:
    def test_labels_become_regions(self, setup):
        _, program = setup
        regions = regions_from_symbols(program)
        names = [region.name for region in regions]
        assert "main" in names
        assert "sum_phase" in names
        assert "scale_phase" in names

    def test_regions_partition_text(self, setup):
        _, program = setup
        regions = regions_from_symbols(program)
        for addr in program.instructions:
            assert sum(addr in region for region in regions) == 1

    def test_program_without_labels(self):
        config = build_processor("nolabel")
        program = assemble("main:\n    halt\n", "nl", isa=config.isa)
        # strip the symbol to simulate an anonymous blob
        program.symbols.clear()
        regions = regions_from_symbols(program)
        assert len(regions) == 1
        assert regions[0].name == "<text>"


class TestStatsReconstruction:
    def test_partition_sums_to_whole(self, setup):
        config, program = setup
        tracer = TraceObserver()
        result = run_session(config, program, observers=(tracer,))
        whole = stats_from_records(tracer.records, config)
        # must exactly equal the live stats the simulator collected
        live = result.stats
        assert whole.class_cycles == live.class_cycles
        assert whole.class_counts == live.class_counts
        assert whole.icache_misses == live.icache_misses
        assert whole.dcache_misses == live.dcache_misses
        assert whole.uncached_fetches == live.uncached_fetches
        assert whole.interlocks == live.interlocks
        assert whole.custom_gpr_cycles == live.custom_gpr_cycles
        assert whole.base_bus_cycles == live.base_bus_cycles
        assert whole.total_cycles == live.total_cycles
        assert whole.total_instructions == live.total_instructions
        assert whole.system_cycles == live.system_cycles
        assert whole.mnemonic_counts == live.mnemonic_counts

    def test_reconstruction_with_custom_instructions(self):
        from repro.programs.extensions import mac16_spec, rdmac_spec, wrmac_spec

        config = build_processor("prof-ext", [mac16_spec(), rdmac_spec(), wrmac_spec()])
        program = assemble(
            "main:\n    movi a2, 20\nl:\n    mac16 a2\n    addi a2, a2, -1\n    bnez a2, l\n    rdmac a3\n    halt\n",
            "mac-prof",
            isa=config.isa,
        )
        tracer = TraceObserver()
        result = run_session(config, program, observers=(tracer,))
        rebuilt = stats_from_records(tracer.records, config)
        assert rebuilt.custom_counts == result.stats.custom_counts
        assert rebuilt.custom_cycles == result.stats.custom_cycles
        assert rebuilt.custom_gpr_cycles == result.stats.custom_gpr_cycles


class TestProfiling:
    def test_regions_sum_to_program_estimate(self, model, setup):
        config, program = setup
        report = EnergyProfiler(model).profile(config, program)
        whole = model.estimate(config, program)
        assert report.total_energy == pytest.approx(whole.energy, rel=1e-9)
        assert sum(r.energy for r in report.regions) == pytest.approx(whole.energy)

    def test_hot_region_identified(self, model, setup):
        config, program = setup
        report = EnergyProfiler(model).profile(config, program)
        hottest = report.sorted_by_energy()[0]
        # the two loops dominate; main's straight-line code does not
        assert hottest.name in ("sum_phase", "sc_loop", "sp_loop", "scale_phase")
        by_name = {r.name: r for r in report.regions}
        assert by_name["main"].energy < report.total_energy / 2

    def test_custom_regions(self, model, setup):
        config, program = setup
        split = program.symbol("sum_phase")
        end = max(program.instructions) + 4
        regions = [
            CodeRegion("setup+epilogue", 0, split),
            CodeRegion("phases", split, end),
        ]
        report = EnergyProfiler(model).profile(config, program, regions=regions)
        assert {r.name for r in report.regions} == {"setup+epilogue", "phases"}
        whole = model.estimate(config, program)
        assert report.total_energy == pytest.approx(whole.energy)

    def test_unmapped_records_bucketed(self, model, setup):
        config, program = setup
        # deliberately leave the epilogue out of the region map
        regions = [CodeRegion("main-only", 0, program.symbol("sum_phase"))]
        report = EnergyProfiler(model).profile(config, program, regions=regions)
        names = {r.name for r in report.regions}
        assert "<unmapped>" in names
        whole = model.estimate(config, program)
        assert report.total_energy == pytest.approx(whole.energy)

    def test_table_output(self, model, setup):
        config, program = setup
        report = EnergyProfiler(model).profile(config, program)
        text = report.table()
        assert "energy profile" in text
        assert "sum_phase" in text
        assert "total" in text
        top1 = report.table(top=1)
        assert top1.count("\n") < text.count("\n")


class TestPartitionInvariance:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=200), min_size=0, max_size=6, unique=True))
    def test_any_partition_sums_to_whole(self, cuts):
        # hypothesis methods can't take fixtures; rebuild cheap locals
        template = default_template()
        local_model = EnergyMacroModel(template, np.linspace(100, 2100, len(template)))
        config = build_processor("prof-part")
        program = assemble(TWO_PHASE, "two_phase", isa=config.isa)

        text_addrs = sorted(program.instructions)
        end = text_addrs[-1] + 4
        # random cut points inside the text range -> arbitrary partition
        points = sorted({text_addrs[0]} | {text_addrs[0] + 4 * c for c in cuts if text_addrs[0] + 4 * c < end})
        points.append(end)
        regions = [
            CodeRegion(f"part{i}", points[i], points[i + 1])
            for i in range(len(points) - 1)
        ]
        report = EnergyProfiler(local_model).profile(config, program, regions=regions)
        whole = local_model.estimate(config, program)
        assert abs(report.total_energy - whole.energy) < 1e-6 * max(1.0, whole.energy)
