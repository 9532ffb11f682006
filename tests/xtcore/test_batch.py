"""Unit tests for batched multi-config simulation (repro.xtcore.batch).

``run_batch`` must be bitwise identical — stats and final state — to
running each config alone, must fault exactly like a solo run, and must
refuse batches that span more than one semantic partition.
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.isa import base_isa
from repro.testing.progen import stress_programs
from repro.xtcore import (
    SetAssociativeCache,
    SimulationError,
    SimulationLimitExceeded,
    Simulator,
    build_processor,
    run_batch,
    semantic_fingerprint,
)

SOURCE = """\
    .data
buf:
    .word 11, 22, 33, 44, 55, 66, 77, 88
    .text
main:
    la a10, buf
    movi a11, 6
    movi a2, 0
loop:
    l32i a3, a10, 0
    add a2, a2, a3
    s32i a2, a10, 4
    addi a11, a11, -1
    bnez a11, loop
    halt
"""


@pytest.fixture()
def program():
    return assemble(SOURCE, "batch-loop", isa=base_isa())


def _cache_variant(base, *, line_bytes, size_bytes=None, miss_penalty=None):
    return dataclasses.replace(
        base,
        line_bytes=line_bytes,
        size_bytes=size_bytes if size_bytes is not None else base.size_bytes,
        miss_penalty=miss_penalty if miss_penalty is not None else base.miss_penalty,
    )


def heterogeneous_configs():
    """Four configs in one semantic partition with diverse cache/timing."""
    base = build_processor("xt-batch-base", [])
    variants = [base]
    variants.append(
        dataclasses.replace(
            base,
            name="xt-batch-small-lines",
            icache=_cache_variant(base.icache, line_bytes=16),
            dcache=_cache_variant(base.dcache, line_bytes=16, miss_penalty=20),
        )
    )
    variants.append(
        dataclasses.replace(
            base,
            name="xt-batch-big-lines",
            icache=_cache_variant(base.icache, line_bytes=64, size_bytes=8192),
            dcache=_cache_variant(base.dcache, line_bytes=64),
        )
    )
    variants.append(
        dataclasses.replace(base, name="xt-batch-fast-clock", clock_mhz=400.0)
    )
    return variants


def _assert_matches_solo(configs, results, program):
    """Every batch member equals its solo run, stats field by field."""
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        solo = Simulator(config, program).run()
        assert result.engine == "batch"
        assert result.config is config
        for field in dataclasses.fields(solo.stats):
            a = getattr(solo.stats, field.name)
            b = getattr(result.stats, field.name)
            assert a == b, f"{config.name}: stats.{field.name}: {a!r} != {b!r}"
        assert result.state.regs == solo.state.regs
        assert result.state.halted


class TestSemanticFingerprint:
    def test_cache_and_clock_do_not_split_partitions(self):
        configs = heterogeneous_configs()
        fingerprints = {semantic_fingerprint(c) for c in configs}
        assert len(fingerprints) == 1

    def test_register_count_splits_partitions(self):
        base = build_processor("xt-fp", [])
        other = dataclasses.replace(base, num_registers=32)
        assert semantic_fingerprint(base) != semantic_fingerprint(other)

    def test_stable_across_rebuilds(self):
        assert semantic_fingerprint(build_processor("a", [])) == semantic_fingerprint(
            build_processor("b", [])
        )


class TestRunBatch:
    def test_empty_batch(self, program):
        assert run_batch([], program) == []

    def test_matches_solo_runs(self, program):
        configs = heterogeneous_configs()
        _assert_matches_solo(configs, run_batch(configs, program), program)

    def test_results_share_final_state(self, program):
        results = run_batch(heterogeneous_configs(), program)
        assert all(r.state is results[0].state for r in results)

    def test_partition_mismatch_rejected(self, program):
        base = build_processor("xt-mix", [])
        other = dataclasses.replace(base, num_registers=32)
        with pytest.raises(SimulationError, match="semantic"):
            run_batch([base, other], program)

    def test_budget_faults_once_for_the_batch(self, program):
        with pytest.raises(SimulationLimitExceeded):
            run_batch(heterogeneous_configs(), program, max_instructions=5)


#: Two words 1 KiB apart: they collide in a 1 KiB direct-mapped D-cache.
CONFLICT_SOURCE = """\
    .data
lo:
    .word 5
    .space 1020
hi:
    .word 7
    .text
main:
    la a10, lo
    la a12, hi
    movi a11, 8
    movi a2, 0
loop:
    l32i a3, a10, 0
    l32i a4, a12, 0
    add a2, a2, a3
    add a2, a2, a4
    addi a11, a11, -1
    bnez a11, loop
    halt
"""


class TestReplaySharing:
    """Members with equal cache geometry share one miss count per stream;
    only a geometry with an overflowing set pays for a replay."""

    @pytest.fixture()
    def program(self):
        return assemble(CONFLICT_SOURCE, "batch-conflict", isa=base_isa())

    def sharing_configs(self):
        base = build_processor("xt-share-base", [])
        penalty_only = dataclasses.replace(
            base,
            name="xt-share-penalty",
            icache=dataclasses.replace(base.icache, miss_penalty=30),
            dcache=dataclasses.replace(base.dcache, miss_penalty=3),
        )
        direct_mapped = dataclasses.replace(
            base,
            name="xt-share-1way",
            dcache=dataclasses.replace(base.dcache, ways=1, size_bytes=1024),
        )
        two_way = dataclasses.replace(
            base,
            name="xt-share-2way",
            dcache=dataclasses.replace(base.dcache, ways=2, size_bytes=1024),
        )
        direct_mapped_2k = dataclasses.replace(
            base,
            name="xt-share-1way-2K",
            dcache=dataclasses.replace(base.dcache, ways=1, size_bytes=2048),
        )
        small_lines = dataclasses.replace(
            base,
            name="xt-share-16B",
            icache=_cache_variant(base.icache, line_bytes=16),
            dcache=_cache_variant(base.dcache, line_bytes=16),
        )
        repeat = dataclasses.replace(small_lines, name="xt-share-16B-again", clock_mhz=400.0)
        return [
            base,
            penalty_only,
            direct_mapped,
            base,
            two_way,
            direct_mapped_2k,
            small_lines,
            repeat,
            direct_mapped,
        ]

    def test_only_overflowing_geometries_replay_once_and_members_match_solo(
        self, program, monkeypatch
    ):
        configs = self.sharing_configs()
        calls = {"icache": [], "dcache": []}
        replay = SetAssociativeCache.replay

        def counting_replay(cache, stream):
            cfg = cache.config
            calls[cache.name].append((cfg.size_bytes, cfg.ways, cfg.line_bytes))
            return replay(cache, stream)

        monkeypatch.setattr(SetAssociativeCache, "replay", counting_replay)
        results = run_batch(configs, program)

        # ``lo`` and ``hi`` share a set only in the 1 KiB direct-mapped
        # D-cache (listed twice); every other geometry, and every I-cache,
        # holds the whole working set and is counted in closed form.
        assert calls == {"icache": [], "dcache": [(1024, 1, 32)]}
        _assert_matches_solo(configs, results, program)
        # a penalty-only variant shares misses but not cycles
        assert results[1].stats.icache_misses == results[0].stats.icache_misses
        assert results[1].stats.total_cycles != results[0].stats.total_cycles
        # the 1 KiB direct-mapped D-cache thrashes where one more way or
        # twice the size does not
        thrash = results[2].stats.dcache_misses
        assert thrash > results[4].stats.dcache_misses
        assert thrash > results[5].stats.dcache_misses


class TestFoldAndPrice:
    """One fold per lowering, priced into independent per-member stats."""

    @pytest.fixture()
    def program(self):
        return assemble(CONFLICT_SOURCE, "batch-conflict", isa=base_isa())

    @staticmethod
    def configs():
        base = build_processor("xt-price-base", [])
        slow_branches = dataclasses.replace(
            base,
            name="xt-price-slow-branches",
            timing=dataclasses.replace(base.timing, branch_taken_penalty=5),
        )

        def thrashing(config):
            return dataclasses.replace(
                config,
                name=f"{config.name}-1way",
                dcache=dataclasses.replace(config.dcache, ways=1, size_bytes=1024),
            )

        def fitting(config):
            return dataclasses.replace(
                config,
                name=f"{config.name}-2way-16B",
                dcache=dataclasses.replace(
                    config.dcache, ways=2, size_bytes=1024, line_bytes=16
                ),
            )

        return [
            base,
            thrashing(slow_branches),
            fitting(base),
            slow_branches,
            thrashing(base),
            fitting(slow_branches),
        ]

    def test_mixed_geometries_and_lowerings_match_solo(self, program):
        configs = self.configs()
        assert len({c.lowering_key for c in configs}) == 2
        results = run_batch(configs, program)
        _assert_matches_solo(configs, results, program)
        assert results[4].stats.dcache_misses > results[2].stats.dcache_misses
        assert results[3].stats.total_cycles > results[0].stats.total_cycles

    def test_members_own_their_stats(self, program):
        configs = self.configs()
        results = run_batch(configs, program)
        solo = [Simulator(config, program).run().stats for config in configs]
        target = results[0].stats
        for field in dataclasses.fields(target):
            value = getattr(target, field.name)
            if isinstance(value, dict):
                for key in list(value):
                    value[key] += 1000
                value["poison"] = 1
        assert target != solo[0]
        for result, expected in zip(results[1:], solo[1:]):
            assert result.stats == expected, result.config.name


class TestRecordLoopStress:
    """The record pass over every superop side-exit seam, faults included."""

    @pytest.mark.parametrize(
        "case_program", stress_programs(), ids=lambda cp: cp[0].name
    )
    def test_batch_of_one_matches_solo(self, case_program):
        case, program = case_program
        config = build_processor("xt-stress", [])
        budget = case.max_instructions
        if case.faulting:
            errors = (SimulationError, SimulationLimitExceeded)
            with pytest.raises(errors) as solo:
                Simulator(config, program, max_instructions=budget).run()
            with pytest.raises(errors) as batch:
                run_batch([config], program, max_instructions=budget)
            assert type(batch.value) is type(solo.value)
            assert str(batch.value) == str(solo.value)
            return
        solo = Simulator(config, program, max_instructions=budget).run()
        (result,) = run_batch([config], program, max_instructions=budget)
        assert result.stats == solo.stats
        assert result.state.regs == solo.state.regs
        assert result.state.pc == solo.state.pc
        assert result.state.halted == solo.state.halted

    @pytest.mark.parametrize(
        "case_program", stress_programs(), ids=lambda cp: cp[0].name
    )
    def test_batch_across_line_sizes_matches_solo(self, case_program):
        # One batch over 16/32/64 B I- and D-lines records at 16 B, so
        # regions fused at the finest lines must replay every member's
        # streams exactly.
        case, program = case_program
        base = build_processor("xt-stress", [])
        configs = [
            dataclasses.replace(
                base,
                name=f"xt-stress-{size}",
                icache=dataclasses.replace(base.icache, line_bytes=size),
                dcache=dataclasses.replace(base.dcache, line_bytes=size),
            )
            for size in (16, 32, 64)
        ]
        budget = case.max_instructions
        if case.faulting:
            errors = (SimulationError, SimulationLimitExceeded)
            with pytest.raises(errors) as batch:
                run_batch(configs, program, max_instructions=budget)
            for config in configs:
                with pytest.raises(errors) as solo:
                    Simulator(config, program, max_instructions=budget).run()
                assert type(batch.value) is type(solo.value)
                assert str(batch.value) == str(solo.value)
            return
        results = run_batch(configs, program, max_instructions=budget)
        for config, result in zip(configs, results):
            solo = Simulator(config, program, max_instructions=budget).run()
            assert result.stats == solo.stats, config.name
            assert result.state.regs == solo.state.regs
            assert result.state.memory._pages == solo.state.memory._pages
            assert result.state.pc == solo.state.pc


#: A loop over memory with a custom instruction in its fused body.
CUSTOM_LOOP_SOURCE = """\
    .data
buf:
    .word 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25
    .text
main:
    la a10, buf
    movi a11, 12
    movi a2, 0
loop:
    l32i a3, a10, 0
    mul16 a4, a3, a3
    add a2, a2, a4
    s32i a2, a10, 0
    addi a10, a10, 4
    addi a11, a11, -1
    bnez a11, loop
    halt
"""


class TestSharedLowering:
    """One semantic partition whose members need different lowerings."""

    @pytest.fixture()
    def base(self):
        from repro.programs.extensions import mul16_spec

        return build_processor("xt-lower-base", [mul16_spec()])

    @pytest.fixture()
    def program(self, base):
        return assemble(CUSTOM_LOOP_SOURCE, "lower-loop", isa=base.isa)

    @staticmethod
    def members(base):
        def lines(config, size):
            return dataclasses.replace(
                config,
                icache=dataclasses.replace(config.icache, line_bytes=size),
                dcache=dataclasses.replace(config.dcache, line_bytes=size),
            )

        def penalty(config, cycles):
            return dataclasses.replace(
                config,
                timing=dataclasses.replace(config.timing, branch_taken_penalty=cycles),
            )

        # The TIE compiler derives latency from the dataflow graph, which
        # the semantic partition pins, so a slower mul16 is hand-made.
        (impl,) = base.extensions
        slow = dataclasses.replace(
            impl,
            latency=impl.latency + 2,
            instruction=dataclasses.replace(impl.instruction, latency=impl.latency + 2),
        )
        slow_base = dataclasses.replace(base, name="xt-lower-slow", extensions=(slow,))
        return [
            base,
            penalty(base, 1),
            penalty(base, 4),
            lines(base, 16),
            lines(base, 64),
            slow_base,
            lines(penalty(slow_base, 4), 16),
            dataclasses.replace(base, name="xt-lower-fast-clock", clock_mhz=400.0),
        ]

    def test_one_compilation_per_key_and_bitwise_equal_to_solo(self, base, program):
        from repro.obs import run_session
        from repro.xtcore import compilation_cache

        configs = self.members(base)
        assert len({semantic_fingerprint(c) for c in configs}) == 1
        keys = {c.lowering_key for c in configs}
        assert len(keys) == 5
        cache = compilation_cache()
        cache.clear()
        results = run_batch(configs, program)
        assert cache.compilations == len(keys)
        assert len({r.stats.total_cycles for r in results}) >= 5

        for config, result in zip(configs, results):
            solo = run_session(config, program)
            assert result.engine == "batch"
            assert result.stats == solo.stats, config.name
            assert result.state.regs == solo.state.regs
            assert result.state.memory._pages == solo.state.memory._pages
            assert result.state.pc == solo.state.pc
        assert cache.compilations == len(keys)

    def test_recorder_fuses_at_the_finest_line_sizes(self, base, program, forced_fusion):
        from repro.xtcore import compilation_cache

        configs = self.members(base)
        compilation_cache().clear()
        run_batch(configs, program)
        executable = compilation_cache().get_or_compile(configs[0], program)
        assert list(executable._superops) == [(4, 4)]  # the 16 B members
        superops = executable.superops(4, 4)
        loop = executable.index_of(program.symbol("loop"))
        assert callable(superops.fused[loop])

    def test_budget_expiring_mid_block_raises_once_like_solo(
        self, base, program, forced_fusion
    ):
        configs = self.members(base)
        total = Simulator(base, program).run().stats.total_instructions
        # the last loop iteration: each budget stops inside or at the edge
        # of the already fused loop body
        for budget in range(total - 8, total):
            with pytest.raises(SimulationLimitExceeded) as solo:
                Simulator(base, program, max_instructions=budget).run()
            with pytest.raises(SimulationLimitExceeded) as batch:
                run_batch(configs, program, max_instructions=budget)
            assert str(batch.value) == str(solo.value)
