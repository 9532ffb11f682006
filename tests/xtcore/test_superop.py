"""Unit tests for the region-level superop tier.

The differential suites (tests/integration/test_dispatch_differential.py)
pin bitwise equivalence; these tests pin the *structure*: segment and
region discovery, on-demand fused closures, dispatch-path selection,
and the region lowerings memoized on each executable.
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.isa import base_isa
from repro.obs import SimObserver, TraceObserver
from repro.obs.tally import RunTallyObserver
from repro.programs import characterization_suite
from repro.programs.reed_solomon import reed_solomon_choices
from repro.testing.progen import stress_programs
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
    BLK_FIRST_SRCS,
    BLK_LEN,
    BLK_LOAD_DESTS,
    BLK_LOOP,
    BLK_NEXT_IDX,
    BLK_SEGMENTS,
    BLK_START,
    OP_ADDR,
    OP_CACHED,
    OP_CUSTOM_KIND,
    OP_EDGE,
    OP_FALL_IDX,
    OP_IMM,
    OP_INS,
    OP_INTERIOR,
    OP_LOAD_DESTS,
    OP_MEM,
    OP_MNEMONIC,
    OP_SEM,
    OP_SRC0,
    OP_SRCS,
    SEG_END,
    SEG_START,
    SEG_TARGET,
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


def _region_ops(block):
    """Op indices ``block`` covers, header first."""
    return range(block[BLK_START], block[BLK_START] + block[BLK_LEN])


def _trace(config, program):
    """The run's trace records, through a :class:`TraceObserver`."""
    tracer = TraceObserver()
    Simulator(config, program, observers=(tracer,)).run()
    return tracer.records


def _fused_calls(config, program, superops):
    """Header index -> dispatch arrivals, replaying the fusion policy on a trace.

    The first arrival at a header runs its region op by op (one retire),
    later ones run it fused: a loop region until control leaves its op
    range, a straight region for its one segment.  No run here nears
    the instruction budget, so no region stops for it.
    """
    trace = _trace(config, program)
    executable = compile_program(config, program)
    path = [executable.index_of(record.addr) for record in trace]
    arrivals: dict[int, int] = {}
    pos = 0
    while pos < len(path):
        block = superops.block_at[path[pos]]
        if block is None:
            pos += 1
            continue
        head = block[BLK_START]
        arrivals[head] = arrivals.get(head, 0) + 1
        if arrivals[head] == 1 or not block[BLK_LOOP]:
            pos += 1 if arrivals[head] == 1 else block[BLK_LEN]
            continue
        while pos < len(path) and path[pos] in _region_ops(block):
            pos += 1
    return arrivals


def _assert_fused_equals_per_op(config, executable, block, fused, budget=4000):
    """Run ``block`` fused and op by op from one seeded state; compare all.

    The per-op side follows the region's rules literally: it starts at
    the header, counts load-use interlocks on every edge after the
    first op, stops when control leaves the region's op range, and at
    the header once the worst-case iterations that fit in ``budget``
    (``budget // length`` of them) have run.
    """
    ops = executable.ops
    ishift, dshift = _shifts(config)
    head, length = block[BLK_START], block[BLK_LEN]
    inside = _region_ops(block)

    def seeded():
        state = MachineState(config.num_registers)
        for reg in range(config.num_registers):
            state.regs[reg] = (0x9E3779B9 * (reg + 1)) & 0xFFFF_FFF0
        return state

    fused_state, fused_ic, fused_dc = seeded(), [-1, 0], [-1, 0]
    fused_fetch, fused_data = [], []
    fused_segments, fused_taken = [0] * len(ops), [0] * len(ops)
    exit_idx, fused_retired, fused_stalls = fused(
        fused_state, fused_ic, fused_dc, fused_fetch.append, fused_data.append,
        fused_segments, fused_taken, budget,
    )
    fused_counts = [0] * len(ops)
    for start, count in enumerate(fused_segments):
        if count:
            seg = block[BLK_SEGMENTS][
                [s[SEG_START] for s in block[BLK_SEGMENTS]].index(start)
            ]
            for i in range(start, seg[SEG_END] + 1):
                fused_counts[i] += count

    state, ic, dc = seeded(), [-1, 0], [-1, 0]
    fetch, data = [], []
    counts, taken = [0] * len(ops), [0] * len(ops)
    retired = stalls = 0
    iterations = 1
    idx = head
    prev_load_dests = ()
    while True:
        op = ops[idx]
        if op[OP_CACHED]:
            line = op[OP_ADDR] >> ishift
            if line != ic[0]:
                ic[0] = line
                if not fetch.append(op[OP_ADDR]):
                    ic[1] += 1
        if any(src in prev_load_dests for src in op[OP_SRCS]):
            stalls += 1
        base = state.regs[op[OP_SRC0]] if op[OP_MEM] else 0
        state.pc = op[OP_ADDR]
        next_pc = op[OP_SEM](state, op[OP_INS])
        assert next_pc is None or op[OP_EDGE]  # interior ops never redirect
        if op[OP_MEM]:
            mem_addr = (base + op[OP_IMM]) & 0xFFFFFFFF
            line = mem_addr >> dshift
            if line != dc[0]:
                dc[0] = line
                if not data.append(mem_addr):
                    dc[1] += 1
        counts[idx] += 1
        retired += 1
        prev_load_dests = op[OP_LOAD_DESTS]
        if next_pc is None:
            idx = op[OP_FALL_IDX]
        else:
            taken[idx] += 1
            idx = executable.index_of(next_pc)
        if idx not in inside:
            break
        if idx == head:
            iterations += 1
            if iterations > budget // length:
                break

    assert (exit_idx, fused_retired, fused_stalls) == (idx, retired, stalls)
    assert fused_state.regs == state.regs
    assert fused_state.memory._pages == state.memory._pages
    assert (fused_ic, fused_dc) == (ic, dc)
    assert (fused_fetch, fused_data) == (fetch, data)
    assert (fused_counts, fused_taken) == (counts, taken)


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
        # Region invariants: contiguous segments of interior ops, each
        # ended by at most one edge op (a specialized conditional branch
        # or j); every edge goes back to the header, forward inside the
        # region, or out of it; a loop region ends at an edge back to
        # its header, and any other region is one segment of two or
        # more ops.
        shapes = [(config, program)] + [
            case.build() for case in characterization_suite(include_variants=False)
        ]
        shapes += [(config, prog) for _, prog in stress_programs()]
        loops = 0
        for shape_config, shape_program in shapes:
            executable = compile_program(shape_config, shape_program)
            ops = executable.ops
            superops = compile_superops(executable, *_shifts(shape_config))
            for block in superops.blocks:
                head = block[BLK_START]
                segments = block[BLK_SEGMENTS]
                last = segments[-1][SEG_END]
                assert superops.block_at[head] is block
                assert block[BLK_LEN] == last - head + 1
                assert block[BLK_FIRST_SRCS] == ops[head][OP_SRCS]
                assert segments[0][SEG_START] == head
                for seg, after in zip(segments, segments[1:]):
                    assert after[SEG_START] == seg[SEG_END] + 1
                for seg in segments:
                    assert superops.segment_at[seg[SEG_START]] is seg
                    for i in range(seg[SEG_START], seg[SEG_END]):
                        assert ops[i][OP_INTERIOR]
                    end = ops[seg[SEG_END]]
                    target = seg[SEG_TARGET]
                    if target < 0:
                        assert end[OP_INTERIOR]
                        continue
                    assert end[OP_EDGE] and not end[OP_INTERIOR]
                    assert end[OP_MNEMONIC] not in (
                        "call", "ret", "jx", "callx", "halt"
                    )
                    assert executable.index_of(end[OP_INS].imm) == target
                    assert not head < target <= seg[SEG_END]  # no inner loop
                if block[BLK_LOOP]:
                    loops += 1
                    assert segments[-1][SEG_TARGET] == head
                else:
                    assert len(segments) == 1
                    assert segments[0][SEG_TARGET] != head
                    assert block[BLK_LEN] >= 2  # one op gains nothing fused
                assert block[BLK_LOAD_DESTS] == ops[last][OP_LOAD_DESTS]
                assert block[BLK_NEXT_IDX] == ops[last][OP_FALL_IDX]
        assert loops

    def test_fused_closures_present_for_base_isa(self, config, program):
        # Fusion happens on a header's second arrival: after a run,
        # every region arrived at twice or more holds a callable
        # closure, a region arrived at once holds the entered-once
        # marker, and each closure retires exactly like the per-op path.
        compilation_cache().clear()
        Simulator(config, program).run()
        executable = compilation_cache().get_or_compile(config, program)
        superops = executable.superops(*_shifts(config))
        arrivals = _fused_calls(config, program, superops)
        assert any(n >= 2 for n in arrivals.values())
        assert any(n == 1 for n in arrivals.values())
        for start in range(len(executable.ops)):
            n = arrivals.get(start, 0)
            slot = superops.fused[start]
            if n >= 2:
                assert callable(slot)
                block = superops.block_at[start]
                _assert_fused_equals_per_op(config, executable, block, slot)
                # the budget stop: room for exactly one iteration
                _assert_fused_equals_per_op(
                    config, executable, block, slot, budget=block[BLK_LEN]
                )
            elif n == 1:
                assert slot is False
            else:
                assert slot is None

    def test_fused_closures_equal_per_op_with_memory_and_customs(self):
        compilation_cache().clear()
        covered = []
        loops = 0
        for case in characterization_suite():
            Simulator(case.config, case.program).run()
            executable = compilation_cache().get_or_compile(case.config, case.program)
            superops = executable.superops(*_shifts(case.config))
            for start, slot in enumerate(superops.fused):
                if not callable(slot):
                    continue
                block = superops.block_at[start]
                covered += [executable.ops[i] for i in _region_ops(block)]
                loops += block[BLK_LOOP]
                _assert_fused_equals_per_op(case.config, executable, block, slot)
        assert any(op[OP_MEM] for op in covered)
        assert any(op[OP_CUSTOM_KIND] for op in covered)
        assert any(op[OP_EDGE] for op in covered)
        assert loops

    def test_later_calls_enter_a_fused_loop_once(self):
        # Once gfm_loop is fused, each later gfmult_sw call runs all
        # eight iterations of it in one fused call.
        compilation_cache().clear()
        case = next(c for c in reed_solomon_choices() if c.name == "rs_sw")
        config, program = case.build()
        Simulator(config, program).run()
        executable = compilation_cache().get_or_compile(config, program)
        superops = executable.superops(*_shifts(config))
        loop = executable.index_of(program.symbol("gfm_loop"))
        block = superops.block_at[loop]
        assert block[BLK_LOOP] and callable(superops.fused[loop])
        calls = []
        region = superops.fused[loop]

        def counting(*args):
            exit_idx, retired, stalls = region(*args)
            calls.append(retired)
            return exit_idx, retired, stalls

        superops.fused[loop] = counting
        try:
            Simulator(config, program).run()
        finally:
            superops.fused[loop] = region
        trace = _trace(config, program)
        entry = program.symbol("gfmult_sw")
        mult_calls = sum(1 for record in trace if record.addr == entry)
        assert mult_calls > 1
        assert len(calls) == mult_calls
        header_retires = sum(
            1 for record in trace if record.addr == program.symbol("gfm_loop")
        )
        assert header_retires == 8 * mult_calls
        assert sum(calls) == sum(
            1 for record in trace
            if executable.index_of(record.addr) in _region_ops(block)
        )

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
        tracer = TraceObserver()
        result = Simulator(config, program, observers=(tracer,)).run()
        assert result.engine == "instrumented"
        assert len(tracer.records) == result.stats.total_instructions

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
