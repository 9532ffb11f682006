"""Instruction-set simulator tests: timing model, events, traces, stats."""

import pytest

from repro.asm import assemble
from repro.isa import InstructionClass
from repro.obs import TraceObserver, run_session
from repro.tie import TieSpec
from repro.xtcore import (
    DEFAULT_STACK_TOP,
    CacheConfig,
    ProcessorConfig,
    SimulationError,
    SimulationLimitExceeded,
    Simulator,
    build_processor,
    class_mix,
)


def run(source, config=None, **kwargs):
    config = config or build_processor("iss-test")
    program = assemble(source, "iss-test", isa=config.isa)
    return run_session(config, program, **kwargs)


def trace(source):
    """Run ``source`` with a :class:`TraceObserver`; ``(result, records)``."""
    tracer = TraceObserver()
    result = run(source, observers=(tracer,))
    return result, tracer.records


class TestBasicExecution:
    def test_straightline(self):
        result = run("main:\n    movi a2, 1\n    movi a3, 2\n    add a4, a2, a3\n    halt\n")
        assert result.state.get(4) == 3
        assert result.instructions == 4

    def test_reset_conventions(self):
        result = run("main:\n    halt\n")
        assert result.state.get(1) == DEFAULT_STACK_TOP

    def test_ret_from_main_exits(self):
        # reset plants EXIT_ADDRESS in the link register
        result = run("main:\n    movi a2, 9\n    ret\n")
        assert result.state.get(2) == 9
        assert result.instructions == 2

    def test_data_loaded(self):
        result = run(
            "    .data\nv: .word 77\n    .text\nmain:\n    la a2, v\n    l32i a3, a2, 0\n    halt\n"
        )
        assert result.state.get(3) == 77

    def test_word_helper(self):
        result = run(
            "    .data\nout: .word 0\n    .text\nmain:\n    movi a2, 5\n    la a3, out\n    s32i a2, a3, 0\n    halt\n"
        )
        assert result.word("out") == 5
        assert result.words("out", 1) == [5]

    def test_invalid_pc_raises(self):
        config = build_processor("iss-test")
        program = assemble("main:\n    j main+0x100\n    halt\n", "bad", isa=config.isa)
        with pytest.raises(SimulationError, match="not a valid instruction address"):
            Simulator(config, program).run()

    def test_instruction_budget(self):
        with pytest.raises(SimulationLimitExceeded):
            run("main:\n    j main\n", max_instructions=100)

    def test_unknown_custom_instruction_rejected_at_decode(self):
        extended = build_processor("ext", [_mul16()])
        program = assemble("main:\n    cmul16 a2, a3, a4\n    halt\n", "p", isa=extended.isa)
        base = build_processor("plain")
        with pytest.raises(SimulationError, match="not in processor"):
            Simulator(base, program)

    def test_runtime_seconds(self):
        result = run("main:\n    halt\n")
        assert result.runtime_seconds == pytest.approx(
            result.cycles / (187.0 * 1e6)
        )


class TestCycleAccounting:
    def test_single_cycle_arith(self):
        # 10 movi/add instructions, no branches: 10 arith cycles
        body = "\n".join("    addi a2, a2, 1" for _ in range(10))
        result = run(f"main:\n{body}\n    halt\n")
        assert result.stats.class_cycles[InstructionClass.ARITH] == 10

    def test_branch_taken_includes_penalty(self):
        config = build_processor("iss-test")
        result = run(
            "main:\n    movi a2, 5\nloop:\n    addi a2, a2, -1\n    bnez a2, loop\n    halt\n",
            config=config,
        )
        timing = config.timing
        taken = 4  # loop iterations that branch back
        untaken = 1
        assert result.stats.class_counts[InstructionClass.BRANCH_TAKEN] == taken
        assert result.stats.class_counts[InstructionClass.BRANCH_UNTAKEN] == untaken
        assert result.stats.class_cycles[InstructionClass.BRANCH_TAKEN] == taken * (
            1 + timing.branch_taken_penalty
        )
        assert result.stats.class_cycles[InstructionClass.BRANCH_UNTAKEN] == untaken

    def test_jump_includes_flush_penalty(self):
        config = build_processor("iss-test")
        result = run("main:\n    j skip\nskip:\n    halt\n", config=config)
        assert result.stats.class_cycles[InstructionClass.JUMP] == 1 + config.timing.branch_taken_penalty

    def test_total_cycles_decomposition(self):
        config = build_processor("iss-test")
        result = run(
            """
    .data
arr: .word 1, 2, 3, 4
    .text
main:
    la a2, arr
    movi a3, 4
loop:
    l32i a4, a2, 0
    add a5, a5, a4
    addi a2, a2, 4
    addi a3, a3, -1
    bnez a3, loop
    halt
""",
            config=config,
        )
        stats = result.stats
        expected = (
            stats.base_class_cycle_total
            + stats.system_cycles
            + sum(stats.custom_cycles.values())
            + stats.interlocks * config.timing.interlock_stall
            + stats.icache_misses * config.icache.miss_penalty
            + stats.dcache_misses * config.dcache.miss_penalty
            + stats.uncached_fetches * config.timing.uncached_fetch_penalty
        )
        assert stats.total_cycles == expected


class TestEvents:
    def test_load_use_interlock_detected(self):
        result = run(
            "    .data\nv: .word 1\n    .text\nmain:\n    la a2, v\n    l32i a3, a2, 0\n    add a4, a3, a3\n    halt\n"
        )
        assert result.stats.interlocks == 1

    def test_no_interlock_with_gap(self):
        result = run(
            "    .data\nv: .word 1\n    .text\nmain:\n    la a2, v\n    l32i a3, a2, 0\n    nop\n    add a4, a3, a3\n    halt\n"
        )
        assert result.stats.interlocks == 0

    def test_cold_icache_misses(self):
        # 9 sequential instructions at 32B lines -> 2 lines -> 2 cold misses
        body = "\n".join("    nop" for _ in range(8))
        result = run(f"main:\n{body}\n    halt\n")
        assert result.stats.icache_misses == 2

    def test_dcache_misses_cold_and_hit(self):
        result = run(
            "    .data\nv: .word 1\n    .text\nmain:\n    la a2, v\n    l32i a3, a2, 0\n    l32i a4, a2, 0\n    halt\n"
        )
        assert result.stats.dcache_misses == 1

    def test_uncached_fetch_counted(self):
        result = run(
            "main:\n    j u\n    .utext\nu:\n    nop\n    nop\n    j b\n    .text\nb:\n    halt\n"
        )
        assert result.stats.uncached_fetches == 3  # nop, nop, j
        assert result.stats.icache_misses >= 1  # cached part still misses cold

    def test_icache_conflict_thrash(self):
        # tiny I$ (2 sets, 1 way, 16B lines): two blocks 32B apart alias
        config = ProcessorConfig(
            name="tiny-icache",
            icache=CacheConfig(size_bytes=32, ways=1, line_bytes=16, miss_penalty=5),
        )
        result = run(
            """
main:
    movi a2, 10
loop:
    j far
    .org 0x40
far:
    addi a2, a2, -1
    bnez a2, loop
    halt
""",
            config=config,
        )
        # every iteration re-misses both lines
        assert result.stats.icache_misses >= 15


class TestCustomInstructions:
    def test_custom_cycles_and_counts(self):
        config = build_processor("ext", [_mul16()])
        result = run(
            "main:\n    movi a2, 3\n    movi a3, 7\n    cmul16 a4, a2, a3\n    cmul16 a5, a4, a3\n    halt\n",
            config=config,
        )
        assert result.state.get(4) == 21
        assert result.stats.custom_counts == {"cmul16": 2}
        assert result.stats.custom_gpr_cycles == 2

    def test_non_gpr_custom_does_not_count_side_effect(self):
        from repro.tie import TieState

        shared = TieState("sacc", width=8, init=3)
        bump = TieSpec("bump", fmt="N")
        bump.write_state(shared, bump.add(bump.read_state(shared), bump.const(1, 8), width=8))
        read = TieSpec("readacc", fmt="RD1")
        read.result(read.zero_extend(read.read_state(shared), 32))
        config = build_processor("stateonly", [bump, read])
        result = run("main:\n    bump\n    bump\n    readacc a4\n    halt\n", config=config)
        assert result.state.get(4) == 5
        # bump never touches the GPR file; readacc writes it
        assert result.stats.custom_gpr_cycles == 1

    def test_base_bus_cycles_exclude_custom_and_no_source_ops(self):
        config = build_processor("ext", [_mul16()])
        result = run(
            "main:\n    movi a2, 3\n    add a3, a2, a2\n    cmul16 a4, a2, a3\n    nop\n    halt\n",
            config=config,
        )
        # movi (LI: no sources), nop, halt, cmul16 do not drive the bus; add does
        assert result.stats.base_bus_cycles == 1


class TestTraces:
    def test_trace_only_when_requested(self):
        # without a per-retire observer the run takes the superop loop
        assert run("main:\n    halt\n").engine == "superop"
        traced, records = trace("main:\n    halt\n")
        assert traced.engine == "instrumented"
        assert len(records) == 1

    def test_trace_records_operands_and_results(self):
        _, records = trace(
            "main:\n    movi a2, 6\n    movi a3, 7\n    add a4, a2, a3\n    halt\n"
        )
        record = records[2]
        assert record.mnemonic == "add"
        assert record.operands == (6, 7)
        assert record.result == 13
        assert record.iclass is InstructionClass.ARITH

    def test_trace_memory_address(self):
        result, records = trace(
            "    .data\nv: .word 9\n    .text\nmain:\n    la a2, v\n    l32i a3, a2, 0\n    halt\n"
        )
        load_record = [r for r in records if r.mnemonic == "l32i"][0]
        assert load_record.mem_addr == result.program.symbol("v")
        assert load_record.dcache_miss

    def test_branch_trace_resolved_class(self):
        _, records = trace(
            "main:\n    movi a2, 1\n    bnez a2, t\nt:\n    beqz a2, u\nu:\n    halt\n"
        )
        taken = [r for r in records if r.mnemonic == "bnez"][0]
        untaken = [r for r in records if r.mnemonic == "beqz"][0]
        assert taken.iclass is InstructionClass.BRANCH_TAKEN
        assert untaken.iclass is InstructionClass.BRANCH_UNTAKEN

    def test_trace_repr_flags(self):
        _, records = trace("main:\n    halt\n")
        assert "halt" in repr(records[0])


class TestStats:
    def test_mnemonic_counts(self):
        result = run("main:\n    nop\n    nop\n    halt\n")
        assert result.stats.mnemonic_counts == {"nop": 2, "halt": 1}

    def test_class_mix_sums_to_one(self):
        result = run(
            "main:\n    movi a2, 3\nl:\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n"
        )
        mix = class_mix(result.stats)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_merge(self):
        a = run("main:\n    movi a2, 1\n    halt\n").stats
        b = run("main:\n    nop\n    halt\n").stats
        merged = a.merge(b)
        assert merged.total_instructions == a.total_instructions + b.total_instructions
        assert merged.mnemonic_counts["halt"] == 2

    def test_summary_text(self):
        stats = run("main:\n    halt\n").stats
        assert "instructions: 1" in stats.summary()


def _mul16():
    spec = TieSpec("cmul16", fmt="R3")
    a = spec.source("rs", width=16)
    b = spec.source("rt", width=16)
    spec.result(spec.tie_mult(a, b))
    return spec


class TestPerformanceSummary:
    def test_cpi(self):
        result = run("main:\n    nop\n    nop\n    halt\n")
        assert result.cpi == pytest.approx(result.cycles / 3)

    def test_cpi_empty_guard(self):
        from repro.xtcore.iss import SimulationResult
        from repro.xtcore import ExecutionStats, build_processor
        from repro.asm import assemble

        program = assemble("main:\n    halt\n", "empty")
        empty = SimulationResult(
            program=program,
            config=build_processor("x"),
            stats=ExecutionStats(),
            state=None,
        )
        assert empty.cpi == 0.0
