"""Failure-injection tests: the simulator's behaviour on broken inputs."""

import pytest

from repro.asm import assemble
from repro.isa import BreakpointHit
from repro.obs import TraceObserver
from repro.tie import TieSpec, compile_spec
from repro.xtcore import SimulationError, SimulationLimitExceeded, Simulator, build_processor


class TestControlFlowFaults:
    def test_jump_into_data_section(self):
        config = build_processor("fault")
        program = assemble(
            "    .data\nd: .word 0\n    .text\nmain:\n    la a2, d\n    jx a2\n    halt\n",
            "jump-to-data",
            isa=config.isa,
        )
        with pytest.raises(SimulationError, match="not a valid instruction address"):
            Simulator(config, program).run()

    def test_misaligned_indirect_jump(self):
        config = build_processor("fault")
        program = assemble(
            "main:\n    movi a2, 2\n    jx a2\n    halt\n", "misaligned", isa=config.isa
        )
        with pytest.raises(SimulationError):
            Simulator(config, program).run()

    def test_runaway_loop_budget(self):
        config = build_processor("fault")
        program = assemble("main:\nspin:\n    j spin\n", "spin", isa=config.isa)
        with pytest.raises(SimulationLimitExceeded, match="exceeded 500"):
            Simulator(config, program, max_instructions=500).run()

    def test_break_instruction_surfaces(self):
        config = build_processor("fault")
        program = assemble("main:\n    nop\n    break\n    halt\n", "brk", isa=config.isa)
        with pytest.raises(BreakpointHit) as info:
            Simulator(config, program).run()
        assert info.value.pc == 4

    def test_fall_off_end_of_code(self):
        config = build_processor("fault")
        program = assemble("main:\n    nop\n    nop\n", "falloff", isa=config.isa)
        with pytest.raises(SimulationError, match="not a valid instruction address"):
            Simulator(config, program).run()


class TestCustomInstructionFaults:
    def test_raising_semantics_propagates(self):
        spec = TieSpec("boom", fmt="R2")
        spec.result(spec.source("rs"))
        impl = compile_spec(spec)

        def exploding(ctx, ins):
            raise RuntimeError("datapath exploded")

        # swap the compiled semantics for a raising one (frozen dataclass)
        object.__setattr__(impl.instruction, "semantics", exploding)
        from repro.xtcore import ProcessorConfig

        config = ProcessorConfig(name="boomcfg", extensions=(impl,))
        program = assemble("main:\n    boom a2, a3\n    halt\n", "boom", isa=config.isa)
        with pytest.raises(RuntimeError, match="datapath exploded"):
            Simulator(config, program).run()

    def test_trace_not_partially_corrupted_on_fault(self):
        config = build_processor("fault")
        program = assemble("main:\n    movi a2, 1\n    break\n    halt\n", "brk2", isa=config.isa)
        tracer = TraceObserver()
        simulator = Simulator(config, program, observers=(tracer,))
        with pytest.raises(BreakpointHit):
            simulator.run()
        # the same observer on a second run starts clean
        program_ok = assemble("main:\n    movi a2, 1\n    halt\n", "ok", isa=config.isa)
        Simulator(config, program_ok, observers=(tracer,)).run()
        assert len(tracer.records) == 2
