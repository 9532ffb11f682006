"""Reference RTL energy estimator tests: determinism, monotonicity,
accounting structure and the data-dependence ablation switch."""

import pytest

from repro.asm import assemble
from repro.obs import run_session
from repro.rtl import EVENT_ENERGY, RtlEnergyEstimator, generate_netlist, reference_energy
from repro.tie import TieSpec
from repro.xtcore import build_processor


def _mul16():
    spec = TieSpec("emul", fmt="R3")
    a = spec.source("rs", width=16)
    b = spec.source("rt", width=16)
    spec.result(spec.tie_mult(a, b))
    return spec


def _program(source, config, name="etest"):
    return assemble(source, name, isa=config.isa)


LOOP = """
main:
    movi a2, 40
    movi a3, 17
loop:
    add a3, a3, a2
    xor a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    halt
"""


class TestBasics:
    def test_config_mismatch_rejected(self):
        plain = build_processor("plain")
        other = build_processor("other", [_mul16()])
        program = _program(LOOP, plain)
        estimator = RtlEnergyEstimator(generate_netlist(other))
        with pytest.raises(ValueError, match="models"):
            run_session(plain, program, observers=(estimator.observer(),))

    def test_equal_content_config_accepted(self):
        # the guard is content-addressed: a run on a different object
        # (even differently named) describing the same hardware is valid,
        # and the estimate matches a native run on the modeled processor
        run_on = build_processor("one", [_mul16()])
        modeled = build_processor("two", [_mul16()])
        program = _program(LOOP, run_on)
        estimator = RtlEnergyEstimator(generate_netlist(modeled))
        observer = estimator.observer()
        run_session(run_on, program, observers=(observer,))
        native, _ = reference_energy(modeled, _program(LOOP, modeled))
        assert observer.report.total == native.total

    def test_deterministic(self):
        config = build_processor("plain")
        program = _program(LOOP, config)
        first, _ = reference_energy(config, program)
        second, _ = reference_energy(config, program)
        assert first.total == second.total
        assert first.by_block == second.by_block

    def test_unknown_arith_mnemonic_raises_key_error(self):
        from repro.isa import InstructionClass
        from repro.obs.records import TraceRecord

        config = build_processor("plain")
        program = _program(LOOP, config)
        estimator = RtlEnergyEstimator(generate_netlist(config))
        record = TraceRecord(0x100, "nosuchop", InstructionClass.ARITH, 1, (3, 5), 8)
        observer = estimator.observer()
        observer.on_run_start(config, program)
        with pytest.raises(KeyError, match="nosuchop"):
            observer.on_retire(record)
        # the failed mnemonic leaves no plan behind: it raises again
        observer.on_run_start(config, program)
        with pytest.raises(KeyError, match="nosuchop"):
            observer.on_retire(record)

    def test_observer_reused_across_runs_starts_from_zero(self):
        config = build_processor("plain")
        program = _program(LOOP, config)
        estimator = RtlEnergyEstimator(generate_netlist(config))
        observer = estimator.observer()
        run_session(config, program, observers=(observer,))
        first = observer.report
        run_session(config, program, observers=(observer,))
        assert observer.report.total == first.total
        assert observer.report.by_block == first.by_block
        assert observer.report.by_block is not first.by_block

    def test_report_consistency(self):
        config = build_processor("plain")
        report, result = reference_energy(config, _program(LOOP, config))
        assert report.total == pytest.approx(sum(report.by_group.values()))
        assert report.total == pytest.approx(sum(report.by_block.values()))
        assert report.cycles == result.stats.total_cycles
        assert report.per_cycle == pytest.approx(report.total / report.cycles)
        assert "base_core" in report.summary()


class TestMonotonicity:
    def test_longer_program_costs_more(self):
        config = build_processor("plain")
        short = _program(LOOP.replace("movi a2, 40", "movi a2, 10"), config, "short")
        long = _program(LOOP, config, "long")
        short_report, _ = reference_energy(config, short)
        long_report, _ = reference_energy(config, long)
        assert long_report.total > short_report.total

    def test_events_add_energy(self):
        config = build_processor("plain")
        cached = _program("main:\n    nop\n    nop\n    halt\n", config, "cached")
        uncached = _program(
            "main:\n    j u\n    .utext\nu:\n    nop\n    nop\n    j b\n    .text\nb:\n    halt\n",
            config,
            "uncached",
        )
        cached_report, _ = reference_energy(config, cached)
        uncached_report, _ = reference_energy(config, uncached)
        assert uncached_report.by_group["events"] > cached_report.by_group["events"]

    def test_event_energy_table_positive(self):
        for name, value in EVENT_ENERGY.items():
            assert value > 0, name


class TestCustomHardware:
    def test_custom_group_zero_on_base_core(self):
        config = build_processor("plain")
        report, _ = reference_energy(config, _program(LOOP, config))
        assert report.by_group["custom_hw"] == 0.0
        assert report.by_group["control"] == 0.0

    def test_custom_execution_charges_custom_group(self):
        config = build_processor("ext", [_mul16()])
        source = """
main:
    movi a2, 11
    movi a3, 13
    emul a4, a2, a3
    emul a5, a4, a3
    halt
"""
        report, _ = reference_energy(config, _program(source, config))
        assert report.by_group["custom_hw"] > 0
        assert report.by_group["control"] > 0

    def test_spurious_activation_without_execution(self):
        # base-only program on an extended core still stimulates the
        # bus-tapped custom inputs (paper Example 1)
        config = build_processor("ext", [_mul16()])
        report, _ = reference_energy(config, _program(LOOP, config))
        assert report.by_group["custom_hw"] > 0

    def test_wider_custom_hardware_costs_more(self):
        def width_spec(width):
            spec = TieSpec("wmul", fmt="R3")
            a = spec.source("rs", width=width)
            b = spec.source("rt", width=width)
            spec.result(spec.tie_mult(a, b))
            return spec

        source = """
main:
    movi a2, 40
    li a3, 0x2FF
loop:
    wmul a4, a3, a2
    addi a3, a3, 37
    addi a2, a2, -1
    bnez a2, loop
    halt
"""
        narrow_config = build_processor("narrow", [width_spec(8)])
        wide_config = build_processor("wide", [width_spec(16)])
        narrow_report, _ = reference_energy(narrow_config, _program(source, narrow_config))
        wide_report, _ = reference_energy(wide_config, _program(source, wide_config))
        assert wide_report.by_group["custom_hw"] > narrow_report.by_group["custom_hw"]


class TestDataDependence:
    def test_toggle_affects_energy(self):
        config = build_processor("plain")
        quiet = _program(
            "main:\n    movi a2, 100\nl:\n    add a3, a4, a5\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
            config,
            "quiet",
        )
        noisy = _program(
            "main:\n    movi a2, 100\n    li a4, 0x2AAA\n    li a5, 0x1555\nl:\n    add a3, a4, a5\n    xor a4, a4, a3\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
            config,
            "noisy",
        )
        from repro.isa import InstructionClass

        quiet_report, quiet_sim = reference_energy(config, quiet)
        noisy_report, noisy_sim = reference_energy(config, noisy)
        quiet_alu = (
            quiet_report.by_block["alu"]
            / quiet_sim.stats.class_counts[InstructionClass.ARITH]
        )
        noisy_alu = (
            noisy_report.by_block["alu"]
            / noisy_sim.stats.class_counts[InstructionClass.ARITH]
        )
        assert noisy_alu > quiet_alu

    def test_frozen_mode_removes_data_dependence(self):
        config = build_processor("plain")
        quiet = _program(
            "main:\n    movi a2, 50\nl:\n    add a3, a4, a5\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
            config,
            "quiet",
        )
        estimator = RtlEnergyEstimator(generate_netlist(config), data_dependent=False)
        report_a, _ = estimator.estimate_program(quiet)
        report_b, _ = estimator.estimate_program(quiet)
        assert report_a.total == report_b.total
        live = RtlEnergyEstimator(generate_netlist(config)).estimate_program(quiet)[0]
        assert report_a.total != live.total
