"""Unit tests for the block-level superop tier.

The differential suites (tests/integration/test_dispatch_differential.py)
pin bitwise equivalence; these tests pin the *structure*: block
discovery, on-demand fused closures, dispatch-path selection, and the
block lowerings memoized on each executable.
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.isa import base_isa
from repro.obs import SimObserver
from repro.obs.tally import RunTallyObserver
from repro.programs import characterization_suite
from repro.isa import MachineState
from repro.xtcore import (
    ReferenceSimulator,
    Simulator,
    build_processor,
    compilation_cache,
    compile_program,
    compile_superops,
)
from repro.xtcore.compiled import (
    BLK_LEN,
    BLK_NEXT_IDX,
    BLK_START,
    OP_ADDR,
    OP_CACHED,
    OP_CUSTOM_KIND,
    OP_IMM,
    OP_INS,
    OP_INTERIOR,
    OP_MEM,
    OP_SEM,
    OP_SRC0,
    CompilationCache,
)

LOOP_SOURCE = """\
    .text
main:
    movi a2, 0
    movi a3, 10
loop:
    addi a2, a2, 1
    add a4, a2, a2
    sub a5, a4, a2
    bne a2, a3, loop
    halt
"""


@pytest.fixture()
def config():
    return build_processor("xt-superop-test", [])


@pytest.fixture()
def program():
    return assemble(LOOP_SOURCE, "superop-loop", isa=base_isa())


def _shifts(config):
    """``(ishift, dshift)`` of the config's I/D line sizes."""
    return (
        config.icache.line_bytes.bit_length() - 1,
        config.dcache.line_bytes.bit_length() - 1,
    )


def _block_entries(config, program, superops):
    """Block start index -> times the run entered the block at its head."""
    trace = Simulator(config, program, collect_trace=True).run().trace
    executable = compile_program(config, program)
    starts = {block[BLK_START] for block in superops.blocks}
    entries = dict.fromkeys(starts, 0)
    for record in trace:
        index = executable.index_of(record.addr)
        if index in entries:
            entries[index] += 1
    return entries


def _assert_fused_equals_per_op(config, executable, block, fused):
    """Run ``block`` fused and op by op from one seeded state; compare all."""
    ops = executable.ops
    ishift, dshift = _shifts(config)

    def seeded():
        state = MachineState(config.num_registers)
        for reg in range(config.num_registers):
            state.regs[reg] = (0x9E3779B9 * (reg + 1)) & 0xFFFF_FFF0
        return state

    fused_state, fused_ic, fused_dc = seeded(), [-1, 0], [-1, 0]
    fused_fetch, fused_data = [], []
    fused(fused_state, fused_ic, fused_dc, fused_fetch.append, fused_data.append)

    state, ic, dc = seeded(), [-1, 0], [-1, 0]
    fetch, data = [], []
    for i in range(block[BLK_START], block[BLK_START] + block[BLK_LEN]):
        op = ops[i]
        if op[OP_CACHED]:
            line = op[OP_ADDR] >> ishift
            if line != ic[0]:
                ic[0] = line
                if not fetch.append(op[OP_ADDR]):
                    ic[1] += 1
        base = state.regs[op[OP_SRC0]] if op[OP_MEM] else 0
        state.pc = op[OP_ADDR]
        assert op[OP_SEM](state, op[OP_INS]) is None
        if op[OP_MEM]:
            mem_addr = (base + op[OP_IMM]) & 0xFFFFFFFF
            line = mem_addr >> dshift
            if line != dc[0]:
                dc[0] = line
                if not data.append(mem_addr):
                    dc[1] += 1

    assert fused_state.regs == state.regs
    assert fused_state.memory._pages == state.memory._pages
    assert (fused_ic, fused_dc) == (ic, dc)
    assert (fused_fetch, fused_data) == (fetch, data)


class TestCompileSuperops:
    def test_block_discovery(self, config, program):
        executable = compile_program(config, program)
        superops = compile_superops(executable, *_shifts(config))
        assert len(superops) >= 2  # entry run and loop body at minimum
        assert (superops.ishift, superops.dshift) == _shifts(config)
        # block_at maps exactly the leaders that head each block
        for block in superops.blocks:
            assert superops.block_at[block[BLK_START]] is block
            assert block[BLK_LEN] >= 1
        assert superops.fused_ops <= len(executable.ops)
        assert "blocks over" in repr(superops)

    def test_blocks_cover_only_interior_ops(self, config, program):
        executable = compile_program(config, program)
        superops = compile_superops(executable, *_shifts(config))
        for block in superops.blocks:
            for i in range(block[BLK_START], block[BLK_START] + block[BLK_LEN]):
                assert executable.ops[i][OP_INTERIOR]

    def test_fused_closures_present_for_base_isa(self, config, program):
        # Fusion happens on a block's second entry: after a run, every
        # block entered at least twice holds a callable closure, a block
        # entered once holds the entered-once marker, and each closure
        # retires exactly like the per-op path.
        compilation_cache().clear()
        Simulator(config, program).run()
        executable = compilation_cache().get_or_compile(config, program)
        superops = executable.superops(*_shifts(config))
        entries = _block_entries(config, program, superops)
        assert any(n >= 2 for n in entries.values())
        assert any(n == 1 for n in entries.values())
        for start, n in entries.items():
            slot = superops.fused[start]
            if n >= 2:
                assert callable(slot)
                _assert_fused_equals_per_op(
                    config, executable, superops.block_at[start], slot
                )
            elif n == 1:
                assert slot is False
            else:
                assert slot is None

    def test_fused_closures_equal_per_op_with_memory_and_customs(self):
        compilation_cache().clear()
        covered = []
        for case in characterization_suite():
            Simulator(case.config, case.program).run()
            executable = compilation_cache().get_or_compile(case.config, case.program)
            superops = executable.superops(*_shifts(case.config))
            for start, slot in enumerate(superops.fused):
                if not callable(slot):
                    continue
                block = superops.block_at[start]
                covered += executable.ops[start : start + block[BLK_LEN]]
                _assert_fused_equals_per_op(case.config, executable, block, slot)
        assert any(op[OP_MEM] for op in covered)
        assert any(op[OP_CUSTOM_KIND] for op in covered)

    def test_fall_through_links(self, config, program):
        executable = compile_program(config, program)
        superops = compile_superops(executable, *_shifts(config))
        for block in superops.blocks:
            nxt = block[BLK_NEXT_IDX]
            assert nxt == -1 or 0 <= nxt < len(executable.ops)


class TestEngineSelection:
    """The dispatch path follows what the run observes, not an option."""

    @pytest.mark.parametrize(
        "path,expected",
        [("superop", "superop"), ("instrumented", "instrumented"),
         ("reference", "reference")],
    )
    def test_result_engine_field(self, config, program, path, expected):
        if path == "reference":
            result = ReferenceSimulator(config, program).run()
        elif path == "instrumented":
            result = Simulator(config, program, observers=[SimObserver()]).run()
        else:
            result = Simulator(config, program).run()
        assert result.engine == expected
        assert result.state.halted

    def test_trace_deoptimizes_to_instrumented(self, config, program):
        result = Simulator(config, program, collect_trace=True).run()
        assert result.engine == "instrumented"
        assert result.trace is not None

    def test_run_scoped_observer_keeps_superop(self, config, program):
        tally = RunTallyObserver()
        result = Simulator(config, program, observers=[tally]).run()
        assert result.engine == "superop"
        snapshot = tally.snapshot()
        assert snapshot["runs_started"] == 1
        assert snapshot["runs_finished"] == 1
        assert snapshot["instructions"] == result.stats.total_instructions
        assert snapshot["cycles"] == result.stats.total_cycles


class TestBlockLoweringMemo:
    """Block lowerings live on the executable, one per line-shift pair."""

    def test_built_once_per_shift_pair(self, config, program, monkeypatch):
        import repro.xtcore.compiled as compiled

        built = []
        real = compiled.compile_superops

        def counting(executable, ishift, dshift):
            built.append((ishift, dshift))
            return real(executable, ishift, dshift)

        monkeypatch.setattr(compiled, "compile_superops", counting)
        cache = CompilationCache(maxsize=4)
        executable = cache.get_or_compile(config, program)
        first = executable.superops(5, 5)
        assert executable.superops(5, 5) is first
        other = executable.superops(4, 6)
        assert other is not first
        assert (other.ishift, other.dshift) == (4, 6)
        assert built == [(5, 5), (4, 6)]
        # the compilation cache has no separate block tier
        assert set(cache.info()["tiers"]) == {"ops", "build"}
        assert cache.info()["tiers"]["ops"]["entries"] == 1

    def test_runs_share_the_lowering_of_their_line_sizes(self, config, program):
        compilation_cache().clear()
        bigger = dataclasses.replace(
            config, icache=dataclasses.replace(config.icache, size_bytes=32768)
        )
        Simulator(config, program).run()
        Simulator(bigger, program).run()
        executable = compilation_cache().get_or_compile(config, program)
        assert compilation_cache().compilations == 1
        assert list(executable._superops) == [_shifts(config)]
        superops = executable.superops(*_shifts(config))
        assert any(callable(slot) for slot in superops.fused)

    def test_lowerings_go_with_their_executable(self, config):
        cache = CompilationCache(maxsize=1)
        isa = base_isa()
        progs = [
            assemble(
                LOOP_SOURCE.replace("movi a3, 10", f"movi a3, {bound}"),
                name,
                isa=isa,
            )
            for name, bound in (("one", 10), ("two", 11))
        ]
        first = cache.get_or_compile(config, progs[0]).superops(5, 5)
        cache.get_or_compile(config, progs[1])  # evicts "one"
        assert cache.info()["evictions"] == 1
        assert cache.get_or_compile(config, progs[0]).superops(5, 5) is not first
        cache.clear()
        assert cache.get_or_compile(config, progs[0]).superops(5, 5) is not first
