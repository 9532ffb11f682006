"""Code is generated only for what runs.

TIE semantics closures are generated when a program using the
instruction is first lowered, and a superop region's fused closure on
its header's second entry.  Results never depend on either: these tests pin
when code is generated, and that the lazy forms behave like eager ones.
"""

import sys
import threading

import pytest

from repro.asm import assemble
from repro.isa import base_isa
from repro.programs import characterization_suite
from repro.programs.extensions import ALL_SPEC_FACTORIES
from repro.tie import compiler as tie_compiler
from repro.tie.compiler import LazySemantics
from repro.xtcore import (
    ReferenceSimulator,
    Simulator,
    build_processor,
    compilation_cache,
    compile_program,
)
from repro.xtcore import iss
from repro.xtcore.compiled import BLK_START, OP_SEM

CASE = "tp15_tie_mul16"  # a 12-instruction extension bundle


@pytest.fixture()
def case():
    return next(c for c in characterization_suite() if c.name == CASE)


@pytest.fixture()
def generated(monkeypatch):
    """Mnemonics whose TIE semantics were generated, in order."""
    made: list[str] = []
    original = tie_compiler._make_semantics

    def counting(spec, state_inits):
        made.append(spec.mnemonic)
        return original(spec, state_inits)

    monkeypatch.setattr(tie_compiler, "_make_semantics", counting)
    return made


@pytest.fixture()
def fused(monkeypatch):
    """Header indices of the superop regions fused, in order."""
    made: list[int] = []
    original = iss.fuse_region

    def counting(ops, region, dshift):
        made.append(region[BLK_START])
        return original(ops, region, dshift)

    monkeypatch.setattr(iss, "fuse_region", counting)
    return made


def fresh_config(case):
    """The case's processor, built from its specs, never lowered."""
    mnemonics = [impl.spec.mnemonic for impl in case.config.extensions]
    return build_processor("lazy", [ALL_SPEC_FACTORIES[m]() for m in mnemonics])


class TestLazyTieSemantics:
    def test_building_generates_no_semantics(self, case, generated):
        config = fresh_config(case)
        config.isa  # building the instruction set is part of building
        assert len(config.extensions) == 12
        assert generated == []
        for impl in config.extensions:
            semantics = impl.instruction.semantics
            assert isinstance(semantics, LazySemantics)
            assert semantics.tie_straightline

    def test_lowering_generates_exactly_the_used_instructions(self, case, generated):
        config = fresh_config(case)
        program = assemble(case.source, case.name, isa=config.isa)
        custom = {impl.spec.mnemonic for impl in config.extensions}
        used = {ins.mnemonic for ins in program.instructions.values()} & custom
        assert 0 < len(used) < len(custom)
        executable = compile_program(config, program)
        assert sorted(generated) == sorted(used)
        # the op table holds the generated closures, not the stand-ins
        assert not any(isinstance(op[OP_SEM], LazySemantics) for op in executable.ops)
        compile_program(config, program)
        assert sorted(generated) == sorted(used)  # generated once per config

    def test_reference_interpreter_runs_a_never_lowered_config(self, case):
        lowered = Simulator(fresh_config(case), case.program).run()
        reference = ReferenceSimulator(fresh_config(case), case.program).run()
        assert reference.stats == lowered.stats
        assert reference.state.regs == lowered.state.regs

    def test_stand_in_resolves_once(self, case, generated):
        config = fresh_config(case)
        semantics = config.extensions[0].instruction.semantics
        resolved = semantics.resolve()
        assert semantics.resolve() is resolved
        assert generated == [config.extensions[0].spec.mnemonic]


ONCE_SOURCE = """\
    .text
main:
    movi a2, 1
    movi a3, 2
    add a4, a2, a3
    halt
"""

TWICE_SOURCE = """\
    .text
main:
    movi a2, 0
    movi a3, 2
loop:
    addi a2, a2, 1
    add a4, a2, a2
    bne a2, a3, loop
    halt
"""


class TestSecondEntryFusion:
    @pytest.fixture()
    def config(self):
        return build_processor("xt-lazy-test", [])

    def test_block_entered_once_compiles_nothing(self, config, fused):
        compilation_cache().clear()
        program = assemble(ONCE_SOURCE, "once", isa=base_isa())
        result = Simulator(config, program).run()
        assert result.stats.total_instructions == 4
        assert fused == []
        executable = compilation_cache().get_or_compile(config, program)
        superops = executable.superops(5, 5)  # the default 32 B lines
        assert superops.fused[0] is False  # entered once, run op by op

    def test_block_entered_twice_compiles_once(self, config, fused):
        compilation_cache().clear()
        program = assemble(TWICE_SOURCE, "twice", isa=base_isa())
        loop = compile_program(config, program).index_of(program.symbol("loop"))
        first = Simulator(config, program).run()
        assert fused == [loop]
        # a later run enters the entry block a second time and fuses it;
        # the loop block is already fused
        second = Simulator(config, program).run()
        assert fused == [loop, 0]
        third = Simulator(config, program).run()
        assert fused == [loop, 0]
        assert first.stats == second.stats == third.stats
        assert first.state.regs == second.state.regs == third.state.regs

    def test_threads_share_one_superop_program(self, case):
        # more threads than cores and a short switch interval, so threads
        # interleave inside dispatch while slots fill
        compilation_cache().clear()
        config = fresh_config(case)
        expected = ReferenceSimulator(fresh_config(case), case.program).run()
        start = threading.Barrier(4)
        results: list = []
        errors: list = []

        def worker():
            try:
                start.wait(timeout=30)
                for _ in range(3):
                    results.append(Simulator(config, case.program).run())
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 12
        for result in results:
            assert result.engine == "superop"
            assert result.stats == expected.stats
            assert result.state.regs == expected.state.regs
        executable = compilation_cache().get_or_compile(config, case.program)
        superops = executable.superops(5, 5)  # the one lowering all threads share
        assert any(callable(slot) for slot in superops.fused)
