"""Differential tests: both dispatch loops == reference interpreter.

:class:`repro.xtcore.Simulator` has two dispatch paths — the superop
block loop (the default) and the instrumented per-op loop (taken when a
per-retire observer is present).  Both must be bitwise equivalent to the
reference interpreter (:class:`repro.xtcore.ReferenceSimulator`) on
statistics, traces (a :class:`~repro.obs.TraceObserver` on each side)
and final machine state — on every bundled benchmark and on hundreds of
seeded random programs from :mod:`repro.testing.progen`.
"""

import dataclasses

import pytest

from repro.obs import SimObserver, TraceObserver
from repro.programs import characterization_suite
from repro.testing.progen import generate_program, generate_source, stress_programs
from repro.xtcore import (
    ReferenceSimulator,
    SimulationError,
    SimulationLimitExceeded,
    Simulator,
    build_processor,
    compile_program,
)

TRACE_FIELDS = (
    "addr",
    "mnemonic",
    "iclass",
    "cycles",
    "operands",
    "result",
    "icache_miss",
    "dcache_miss",
    "uncached_fetch",
    "interlock",
    "mem_addr",
)

#: Seed count for the randomized sweep (the issue floor is 200).
RANDOM_SEEDS = range(220)

MAX_INSTRUCTIONS = 200_000


def assert_stats_equal(expected, actual, context):
    for field in dataclasses.fields(expected):
        a = getattr(expected, field.name)
        b = getattr(actual, field.name)
        assert a == b, f"{context}: stats.{field.name} differs: {a!r} != {b!r}"


def assert_traces_equal(expected, actual, context):
    assert len(expected) == len(actual), (
        f"{context}: trace length differs: {len(expected)} != {len(actual)}"
    )
    for i, (ref, new) in enumerate(zip(expected, actual)):
        for field in TRACE_FIELDS:
            a = getattr(ref, field)
            b = getattr(new, field)
            assert a == b, (
                f"{context}: trace[{i}].{field} differs: {a!r} != {b!r}"
            )


def assert_states_equal(expected, actual, context):
    assert expected.regs == actual.regs, f"{context}: register file differs"
    assert expected.pc == actual.pc, (
        f"{context}: final pc differs: {expected.pc:#x} != {actual.pc:#x}"
    )
    assert expected.halted == actual.halted, f"{context}: halted flag differs"
    assert expected.tie_state == actual.tie_state, f"{context}: TIE state differs"
    ref_pages = {k: bytes(v) for k, v in expected.memory._pages.items()}
    new_pages = {k: bytes(v) for k, v in actual.memory._pages.items()}
    assert ref_pages == new_pages, f"{context}: memory contents differ"


#: The two dispatch paths, each selected the way callers select it: by
#: what the run observes.  The base observer wants retires and ignores
#: them, which forces the instrumented loop without a trace.
PATHS = {
    "superop": {},
    "instrumented": {"observers": (SimObserver(),)},
}


def run_path(path, config, program, **kwargs):
    result = Simulator(config, program, **PATHS[path], **kwargs).run()
    assert result.engine == path
    return result


def run_to_fault(simulator):
    """Run a simulator that must raise; return the error and the state it left."""
    states = []
    reset = simulator._reset
    simulator._reset = lambda: states.append(reset()) or states[-1]
    with pytest.raises((SimulationError, SimulationLimitExceeded)) as info:
        simulator.run()
    return info.value, states[0]


def run_both(config, program, max_instructions=MAX_INSTRUCTIONS):
    """Traced reference and instrumented runs.

    Returns ``(ref_result, ref_trace, new_result, new_trace, executable)``.
    """
    ref_tracer = TraceObserver()
    ref_result = ReferenceSimulator(
        config, program, max_instructions=max_instructions, observers=(ref_tracer,)
    ).run()
    executable = compile_program(config, program)
    new_tracer = TraceObserver()
    new_result = Simulator(
        config,
        program,
        max_instructions=max_instructions,
        observers=(new_tracer,),
        executable=executable,
    ).run()
    assert new_result.engine == "instrumented"
    return ref_result, ref_tracer.records, new_result, new_tracer.records, executable


class TestBundledSuiteEquivalence:
    @pytest.mark.parametrize(
        "case", characterization_suite(include_variants=False), ids=lambda c: c.name
    )
    def test_case_bitwise_identical(self, case):
        config, program = case.build()
        ref_result, ref_trace, new_result, new_trace, executable = run_both(
            config, program, max_instructions=case.max_instructions
        )
        assert_stats_equal(ref_result.stats, new_result.stats, case.name)
        assert_traces_equal(ref_trace, new_trace, case.name)
        assert_states_equal(ref_result.state, new_result.state, case.name)
        case.verify(new_result)

        # both untraced paths (fused superop regions, and the per-op
        # instrumented loop driven by a no-op observer) must agree as well
        for path in PATHS:
            fast_result = run_path(
                path,
                config,
                program,
                max_instructions=case.max_instructions,
                executable=executable,
            )
            context = f"{case.name} ({path})"
            assert_stats_equal(ref_result.stats, fast_result.stats, context)
            assert_states_equal(ref_result.state, fast_result.state, context)


class TestRandomProgramEquivalence:
    def test_generator_is_deterministic(self):
        assert generate_source(1234) == generate_source(1234)
        assert generate_source(1) != generate_source(2)

    def test_random_sweep(self):
        config = build_processor("xt-differential", [])
        for seed in RANDOM_SEEDS:
            program = generate_program(seed)
            ref_result, ref_trace, new_result, new_trace, executable = run_both(
                config, program
            )
            context = f"seed {seed}"
            assert_stats_equal(ref_result.stats, new_result.stats, context)
            assert_traces_equal(ref_trace, new_trace, context)
            assert_states_equal(ref_result.state, new_result.state, context)

            # the traced run above is the instrumented path; the default
            # untraced run is the superop path
            fast_result = run_path(
                "superop",
                config,
                program,
                max_instructions=MAX_INSTRUCTIONS,
                executable=executable,
            )
            assert_stats_equal(
                ref_result.stats, fast_result.stats, f"{context} (superop)"
            )
            assert_states_equal(
                ref_result.state, fast_result.state, f"{context} (superop)"
            )

    def test_sweep_exercises_interesting_shapes(self):
        sources = [generate_source(seed) for seed in RANDOM_SEEDS]
        assert any(".utext" in src for src in sources), "no uncached programs generated"
        assert any("loop" in src for src in sources), "no loops generated"
        assert any("skip" in src for src in sources), "no branch skips generated"
        assert all(src.rstrip().endswith("halt") for src in sources)


class TestStressPrograms:
    """Superop side-exit and region seams: handwritten programs that pin each one.

    Each :func:`~repro.testing.progen.stress_cases` program targets one
    spot where the fused path hands control back to the per-op path
    (single-op segments, taken-to-fall-through branches, dynamic jumps
    landing mid-segment, budget expiry inside a region, faults) or a
    shape a loop region folds (if-then/else bodies, exits, joins fed by
    loads, divides by zero, bodies spanning I-lines).
    """

    @pytest.mark.parametrize(
        "case_program", stress_programs(), ids=lambda cp: cp[0].name
    )
    def test_engines_agree(self, case_program):
        case, program = case_program
        config = build_processor("xt-stress", [])
        if not case.faulting:
            reference = ReferenceSimulator(
                config, program, max_instructions=case.max_instructions
            )
            ref_result = reference.run()
            for path in PATHS:
                result = run_path(
                    path, config, program, max_instructions=case.max_instructions
                )
                context = f"{case.name} ({path})"
                assert_stats_equal(ref_result.stats, result.stats, context)
                assert_states_equal(ref_result.state, result.state, context)
            return

        # faulting case: same exception type everywhere; the two dispatch
        # paths agree exactly, and both extend the reference's bare
        # message with locator diagnostics (never contradict it); every
        # engine leaves the same registers and memory at the fault (a
        # budget overrun keeps the message but not the state)
        errors, states = {}, {}
        errors["reference"], states["reference"] = run_to_fault(
            ReferenceSimulator(config, program, max_instructions=case.max_instructions)
        )
        for path in PATHS:
            errors[path], states[path] = run_to_fault(
                Simulator(
                    config, program, **PATHS[path],
                    max_instructions=case.max_instructions,
                )
            )
        assert type(errors["instrumented"]) is type(errors["reference"])
        assert type(errors["superop"]) is type(errors["reference"])
        assert str(errors["instrumented"]) == str(errors["superop"])
        assert str(errors["superop"]).startswith(str(errors["reference"]))
        for path in PATHS:
            assert states[path].regs == states["reference"].regs, path
            assert states[path].memory._pages == states["reference"].memory._pages

    @pytest.mark.parametrize("line_bytes", [16, 64])
    def test_engines_agree_at_other_line_sizes(self, line_bytes):
        base = build_processor("xt-stress", [])
        config = dataclasses.replace(
            base,
            icache=dataclasses.replace(base.icache, line_bytes=line_bytes),
            dcache=dataclasses.replace(base.dcache, line_bytes=line_bytes),
        )
        for case, program in stress_programs():
            budget = case.max_instructions
            if case.faulting:
                with pytest.raises((SimulationError, SimulationLimitExceeded)) as ref:
                    ReferenceSimulator(config, program, max_instructions=budget).run()
                for path in PATHS:
                    with pytest.raises(type(ref.value)):
                        run_path(path, config, program, max_instructions=budget)
                continue
            ref_result = ReferenceSimulator(
                config, program, max_instructions=budget
            ).run()
            for path in PATHS:
                result = run_path(path, config, program, max_instructions=budget)
                context = f"{case.name} ({path}, {line_bytes} B lines)"
                assert_stats_equal(ref_result.stats, result.stats, context)
                assert_states_equal(ref_result.state, result.state, context)

    def test_fused_fall_off_end_diagnostics(self):
        """Satellite: the fused path's invalid-pc fault names the nearest
        preceding symbol (with offset) and the last retired address."""
        config = build_processor("xt-stress", [])
        case, program = next(
            cp for cp in stress_programs() if cp[0].name == "stress_fall_off_end"
        )
        with pytest.raises(SimulationError) as info:
            Simulator(config, program).run()
        message = str(info.value)
        assert "is not a valid instruction address" in message
        assert "nearest preceding symbol: 'tail'" in message
        assert "last retired instruction at 0x" in message
