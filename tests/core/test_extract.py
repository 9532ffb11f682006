"""Variable extraction + dynamic resource-usage analysis tests."""

import pytest

from repro.asm import assemble
from repro.core import (
    analyze_resource_usage,
    default_template,
    extract_variables,
    instruction_level_template,
    unweighted_template,
    variables_as_dict,
)
from repro.hwlib import SPURIOUS_ACTIVATION_WEIGHT, ComponentCategory
from repro.tie import TieSpec
from repro.obs import run_session
from repro.xtcore import build_processor


def _mul16():
    spec = TieSpec("xmul", fmt="R3")
    a = spec.source("rs", width=16)
    b = spec.source("rt", width=16)
    spec.result(spec.tie_mult(a, b))
    return spec


@pytest.fixture(scope="module")
def extended_run():
    config = build_processor("extract-test", [_mul16()])
    program = assemble(
        """
main:
    movi a2, 20
    movi a3, 3
loop:
    xmul a4, a3, a2
    add a3, a3, a4
    addi a2, a2, -1
    bnez a2, loop
    halt
""",
        "extract-test",
        isa=config.isa,
    )
    return config, run_session(config, program)


class TestInstructionVariables:
    def test_class_cycles_extracted(self, extended_run):
        config, result = extended_run
        values = variables_as_dict(result.stats, config)
        from repro.isa import InstructionClass

        assert values["N_a"] == result.stats.class_cycles[InstructionClass.ARITH]
        assert values["N_bt"] == result.stats.class_cycles[InstructionClass.BRANCH_TAKEN]
        assert values["N_cm"] == result.stats.icache_misses
        assert values["N_sd"] == result.stats.custom_gpr_cycles

    def test_vector_matches_dict(self, extended_run):
        config, result = extended_run
        template = default_template()
        vector = extract_variables(result.stats, config, template)
        values = variables_as_dict(result.stats, config, template)
        assert vector.tolist() == [values[key] for key in template.keys()]

    def test_instruction_only_template_has_no_structural(self, extended_run):
        config, result = extended_run
        vector = extract_variables(result.stats, config, instruction_level_template())
        assert vector.shape == (11,)


class TestResourceUsage:
    def test_architected_activation_scales_with_executions(self, extended_run):
        config, result = extended_run
        usage = analyze_resource_usage(result.stats, config)
        executions = result.stats.custom_counts["xmul"]
        impl = config.extension_for("xmul")
        expected = impl.per_exec_activity[ComponentCategory.TIE_MULT] * executions
        architected = usage.weighted_activity[ComponentCategory.TIE_MULT]
        spurious = SPURIOUS_ACTIVATION_WEIGHT * result.stats.base_bus_cycles * sum(
            impl.bus_tap_complexity.values()
        )
        assert architected == pytest.approx(expected + spurious)

    def test_spurious_only_config(self):
        # extended core, base-only program: structural activity is purely
        # spurious (operand-bus taps)
        config = build_processor("spurious-test", [_mul16()])
        program = assemble(
            "main:\n    movi a2, 10\nl:\n    add a3, a3, a2\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
            "base-only",
            isa=config.isa,
        )
        result = run_session(config, program)
        usage = analyze_resource_usage(result.stats, config)
        assert usage.instance_active_cycles == {}
        assert sum(usage.instance_spurious_cycles.values()) > 0
        assert usage.weighted_activity[ComponentCategory.TIE_MULT] == pytest.approx(
            SPURIOUS_ACTIVATION_WEIGHT * result.stats.base_bus_cycles * 1.0
        )

    def test_base_processor_has_zero_usage(self, tiny_loop_program):
        config = build_processor("plain")
        result = run_session(config, tiny_loop_program)
        usage = analyze_resource_usage(result.stats, config)
        assert usage.weighted_activity == {}
        assert usage.vector() == [0.0] * 10

    def test_unweighted_vector_differs_for_narrow_hardware(self):
        # an 8x8 multiplier has C = 0.25, so complexity weighting matters
        spec = TieSpec("nmul", fmt="R3")
        a = spec.source("rs", width=8)
        b = spec.source("rt", width=8)
        spec.result(spec.tie_mult(a, b))
        config = build_processor("narrow-extract", [spec])
        program = assemble(
            "main:\n    movi a2, 5\nl:\n    nmul a3, a2, a2\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
            "narrow",
            isa=config.isa,
        )
        result = run_session(config, program)
        usage = analyze_resource_usage(result.stats, config)
        weighted = usage.weighted_activity[ComponentCategory.TIE_MULT]
        raw = usage.raw_activity[ComponentCategory.TIE_MULT]
        assert weighted == pytest.approx(raw * 0.25)

    def test_unweighted_template_uses_raw(self, extended_run):
        config, result = extended_run
        usage = analyze_resource_usage(result.stats, config)
        vector = extract_variables(result.stats, config, unweighted_template(), usage)
        template = unweighted_template()
        idx = template.index_of("S_tie_mult")
        assert vector[idx] == pytest.approx(
            usage.raw_activity[ComponentCategory.TIE_MULT]
        )
