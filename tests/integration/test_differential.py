"""Differential testing: the timed ISS vs a bare functional executor.

Hypothesis generates random programs; both execution engines must agree
on the final architectural state.  The bare executor knows nothing about
pipelines, caches or statistics, so any divergence pinpoints a bug in the
simulator's added machinery (or in the generator's assumptions).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.isa import MachineState
from repro.obs import TraceObserver
from repro.programs.extensions import add4x8_spec, mul16_spec
from repro.xtcore import DEFAULT_STACK_TOP, EXIT_ADDRESS, Simulator, build_processor

#: straight-line instruction templates over registers a2..a9
_R3_OPS = ("add", "sub", "and", "or", "xor", "min", "maxu", "sll", "srl", "mull")
_R2_OPS = ("mov", "neg", "not", "abs", "sext8", "zext16", "clz", "popc", "bswap")
_I_OPS = ("addi", "slti")
_CUSTOM_OPS = ("xm16", "xa48")


def _custom_specs():
    mul = mul16_spec()
    mul.mnemonic = "xm16"
    add = add4x8_spec()
    add.mnemonic = "xa48"
    return [mul, add]


REG = st.integers(min_value=2, max_value=9)


@st.composite
def straightline_program(draw):
    lines = ["main:"]
    # seed some registers
    for reg in range(2, 6):
        lines.append(f"    movi a{reg}, {draw(st.integers(-2048, 2047))}")
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        choice = draw(st.integers(0, 3))
        rd, rs, rt = draw(REG), draw(REG), draw(REG)
        if choice == 0:
            op = draw(st.sampled_from(_R3_OPS))
            lines.append(f"    {op} a{rd}, a{rs}, a{rt}")
        elif choice == 1:
            op = draw(st.sampled_from(_R2_OPS))
            lines.append(f"    {op} a{rd}, a{rs}")
        elif choice == 2:
            op = draw(st.sampled_from(_I_OPS))
            imm = draw(st.integers(-2048, 2047))
            lines.append(f"    {op} a{rd}, a{rs}, {imm}")
        else:
            op = draw(st.sampled_from(_CUSTOM_OPS))
            lines.append(f"    {op} a{rd}, a{rs}, a{rt}")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def _bare_execute(program, config):
    """Reference executor: semantics only, no timing machinery."""
    state = MachineState(config.num_registers)
    for addr, blob in program.data:
        state.memory.write_bytes(addr, blob)
    state.tie_state.update(config.state_inits)
    state.set(0, EXIT_ADDRESS)
    state.set(1, DEFAULT_STACK_TOP)
    state.pc = program.entry
    isa = config.isa
    steps = 0
    while not state.halted and state.pc != EXIT_ADDRESS and steps < 100_000:
        ins = program.instructions[state.pc]
        next_pc = isa.lookup(ins.mnemonic).semantics(state, ins)
        state.pc = next_pc if next_pc is not None else state.pc + 4
        steps += 1
    return state


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(straightline_program())
    def test_iss_matches_bare_semantics(self, source):
        config = build_processor("diff-test", _custom_specs())
        program = assemble(source, "diff", isa=config.isa)
        timed = Simulator(config, program).run().state
        bare = _bare_execute(program, config)
        assert timed.regs == bare.regs
        assert timed.tie_state == bare.tie_state

    @settings(max_examples=25, deadline=None)
    @given(straightline_program())
    def test_trace_collection_does_not_change_results(self, source):
        config = build_processor("diff-test", _custom_specs())
        program = assemble(source, "diff", isa=config.isa)
        plain = Simulator(config, program).run()
        traced = Simulator(config, program, observers=(TraceObserver(),)).run()
        assert plain.state.regs == traced.state.regs
        assert plain.stats.total_cycles == traced.stats.total_cycles
        assert plain.stats.class_cycles == traced.stats.class_cycles
