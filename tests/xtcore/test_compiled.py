"""Unit tests for the compile-and-dispatch layer (repro.xtcore.compiled)."""

import dataclasses
import sys
import threading

import pytest

from repro.asm import assemble
from repro.obs import DEFAULT_MAX_INSTRUCTIONS as OBS_DEFAULT
from repro.xtcore import (
    DEFAULT_MAX_INSTRUCTIONS,
    CompilationCache,
    SimulationError,
    Simulator,
    build_processor,
    compilation_cache,
    compile_program,
    describe_invalid_pc,
)
from repro.xtcore.compiled import (
    OP_CACHED,
    OP_FALL_IDX,
    OP_ISSUE_TAKEN,
    OP_ISSUE_UNTAKEN,
    OP_MNEMONIC,
)

SOURCE = """
main:
    movi a2, 3
loop:
    addi a2, a2, -1
    bnez a2, loop
    j out
    .utext
unreached:
    nop
    .text
out:
    halt
"""


@pytest.fixture()
def config():
    return build_processor("xt-compiled-test")


@pytest.fixture()
def program(config):
    return assemble(SOURCE, "compiled-test", isa=config.isa)


class TestExecutableProgram:
    def test_index_addressing_and_fall_through(self, config, program):
        executable = compile_program(config, program)
        assert len(executable) == len(program.instructions)
        for index, addr in enumerate(executable.addrs):
            assert executable.pc_to_index[addr] == index
            assert executable.index_of(addr) == index
            op = executable.ops[index]
            fall = executable.pc_to_index.get(addr + 4, -1)
            assert op[OP_FALL_IDX] == fall
        assert executable.index_of(0xDEAD_BEE0) == -1

    def test_uncached_flag_follows_utext_ranges(self, config, program):
        executable = compile_program(config, program)
        by_mnemonic = {
            op[OP_MNEMONIC]: op[OP_CACHED] for op in executable.ops
        }
        assert by_mnemonic["nop"] is False  # lives in the .utext region
        assert by_mnemonic["movi"] is True

    def test_branch_timing_is_pre_resolved(self, config, program):
        executable = compile_program(config, program)
        branch = next(op for op in executable.ops if op[OP_MNEMONIC] == "bnez")
        penalty = config.timing.branch_taken_penalty
        assert branch[OP_ISSUE_TAKEN] == branch[OP_ISSUE_UNTAKEN] + penalty

    def test_unknown_mnemonic_raises_simulation_error(self, config):
        # assemble against an extended ISA, compile against the base core
        from repro.programs.extensions import mul16_spec
        from repro.xtcore import build_processor as build

        extended = build("xt-ext", [mul16_spec()])
        src = "main:\n    mul16 a2, a3, a4\n    halt\n"
        program = assemble(src, "ext-only", isa=extended.isa)
        with pytest.raises(SimulationError, match="not in processor"):
            compile_program(config, program)


class TestProgramDigest:
    def test_stable_and_name_independent(self, config):
        src = "main:\n    movi a2, 7\n    halt\n"
        a = assemble(src, "name-a", isa=config.isa)
        b = assemble(src, "name-b", isa=config.isa)
        assert a.digest() == a.digest()
        assert a.digest() == b.digest()

    def test_content_sensitive(self, config):
        a = assemble("main:\n    movi a2, 7\n    halt\n", "p", isa=config.isa)
        b = assemble("main:\n    movi a2, 8\n    halt\n", "p", isa=config.isa)
        assert a.digest() != b.digest()


class TestCompilationCache:
    def test_hit_miss_counters(self, config, program):
        cache = CompilationCache()
        first = cache.get_or_compile(config, program)
        again = cache.get_or_compile(config, program)
        assert first is again
        info = cache.info()
        # custom-instruction codegen is counted process-wide
        for key in ("tie_closures", "tie_statements", "tie_codegen_ms"):
            assert info.pop(key) >= 0
        assert info == {
            "entries": 1,
            "maxsize": 256,
            "hits": 1,
            "misses": 1,
            "compilations": 1,
            "evictions": 0,
            "regions_fused": 0,
            "region_statements": 0,
            "fuse_ms": 0.0,
            "tiers": {
                "ops": {
                    "entries": 1,
                    "hits": 1,
                    "misses": 1,
                    "compilations": 1,
                    "evictions": 0,
                },
                "build": {
                    "entries": 0,
                    "hits": 0,
                    "misses": 0,
                    "compilations": 0,
                    "evictions": 0,
                },
            },
        }

    def test_content_keying_across_objects(self, config, program):
        cache = CompilationCache()
        clone = assemble(SOURCE, "compiled-test", isa=config.isa)
        assert clone is not program
        first = cache.get_or_compile(config, program)
        again = cache.get_or_compile(config, clone)
        assert first is again
        assert cache.compilations == 1

    def test_pricing_only_variants_share_one_lowering(self, config, program):
        cache = CompilationCache()
        variants = [
            config,
            dataclasses.replace(config, name="renamed", clock_mhz=400.0),
            dataclasses.replace(
                config, icache=dataclasses.replace(config.icache, line_bytes=16)
            ),
            dataclasses.replace(
                config, timing=dataclasses.replace(config.timing, interlock_stall=3)
            ),
        ]
        lowerings = {id(cache.get_or_compile(v, program)) for v in variants}
        assert len(lowerings) == 1
        assert cache.compilations == 1
        repriced = dataclasses.replace(
            config, timing=dataclasses.replace(config.timing, branch_taken_penalty=4)
        )
        cache.get_or_compile(repriced, program)
        assert cache.compilations == 2

    def test_lru_eviction(self, config):
        cache = CompilationCache(maxsize=2)
        programs = [
            assemble(f"main:\n    movi a2, {n}\n    halt\n", f"p{n}", isa=config.isa)
            for n in range(3)
        ]
        for p in programs:
            cache.get_or_compile(config, p)
        assert len(cache) == 2
        assert cache.evictions == 1
        # p0 was evicted: compiling it again is a miss
        cache.get_or_compile(config, programs[0])
        assert cache.compilations == 4

    def test_clear(self, config, program):
        cache = CompilationCache()
        executable = cache.get_or_compile(config, program)
        assert cache.get_or_compile(config, program) is executable
        assert cache.compilations == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["hits"] == 0
        assert cache.compilations == 0

    def test_global_cache_is_shared(self, config, program):
        assert compilation_cache() is compilation_cache()
        before = compilation_cache().compilations
        a = compilation_cache().get_or_compile(config, program)
        b = Simulator(config, program).executable
        assert a is b
        assert compilation_cache().compilations == before + 1

    def test_build_tier_does_not_wait_on_lowering(self):
        cache = CompilationCache()
        cache.get_or_build("warm", lambda: "value")
        lowering, release = threading.Event(), threading.Event()

        def hold_lowering_lock():
            with cache._lock:  # what get_or_compile holds across a lowering
                lowering.set()
                release.wait(10)

        holder = threading.Thread(target=hold_lowering_lock)
        holder.start()
        try:
            assert lowering.wait(10)
            results = []
            lookup = threading.Thread(
                target=lambda: results.append(
                    (cache.get_or_build("warm", list), cache.get_or_build("cold", lambda: 7))
                )
            )
            lookup.start()
            lookup.join(5)
            assert not lookup.is_alive()
            assert results == [("value", 7)]
        finally:
            release.set()
            holder.join()

    def test_racing_builds_share_the_first_value(self):
        cache = CompilationCache()
        both_building = threading.Barrier(2)

        def build():
            both_building.wait(10)
            return object()

        values = []
        threads = [
            threading.Thread(target=lambda: values.append(cache.get_or_build("k", build)))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert len(values) == 2 and values[0] is values[1]
        assert cache.get_or_build("k", build) is values[0]
        tier = cache.info()["tiers"]["build"]
        assert (tier["entries"], tier["misses"], tier["compilations"]) == (1, 2, 2)

    def test_build_tier_counters_survive_contention(self):
        cache = CompilationCache(maxsize=8)
        threads_n, calls_n = 8, 300
        wrong = []

        def hammer(seed):
            for call in range(calls_n):
                key = (seed * 7 + call) % 20
                value = cache.get_or_build(key, lambda key=key: (key, object()))
                if value[0] != key:
                    wrong.append((key, value))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        tier = cache.info()["tiers"]["build"]
        assert wrong == []
        assert tier["hits"] + tier["misses"] == threads_n * calls_n
        assert tier["compilations"] == tier["misses"]
        assert tier["entries"] <= 8


class TestSimulatorExecutableContract:
    def test_mismatched_executable_rejected(self, config, program):
        other = assemble("main:\n    halt\n", "other", isa=config.isa)
        wrong = compile_program(config, other)
        with pytest.raises(SimulationError, match="different content"):
            Simulator(config, program, executable=wrong)

    def test_executable_checked_by_lowering_key(self, config, program):
        executable = compile_program(config, program)
        regeometried = dataclasses.replace(
            config, icache=dataclasses.replace(config.icache, line_bytes=64)
        )
        assert Simulator(regeometried, program, executable=executable).executable is executable
        repriced = dataclasses.replace(
            config,
            timing=dataclasses.replace(config.timing, branch_taken_penalty=5),
        )
        with pytest.raises(SimulationError, match="different content"):
            Simulator(repriced, program, executable=executable)

    def test_default_budget_exported_everywhere(self):
        assert DEFAULT_MAX_INSTRUCTIONS == 5_000_000
        assert OBS_DEFAULT is DEFAULT_MAX_INSTRUCTIONS


class TestInvalidPcDiagnostics:
    def test_names_nearest_symbol_and_last_retired(self, config, program):
        executable = compile_program(config, program)
        message = describe_invalid_pc("p", 0x10C, executable, last_retired_addr=0x8)
        assert "pc=0x0000010c is not a valid instruction address" in message
        assert "nearest preceding symbol" in message
        assert "last retired instruction at 0x00000008" in message

    def test_exact_symbol_hit_has_no_offset(self, config, program):
        executable = compile_program(config, program)
        addr = program.symbols["out"]
        message = describe_invalid_pc("p", addr, executable)
        assert f"'out'" in message
        assert "+0x" not in message
        assert "no instructions retired" in message

    def test_simulator_raises_with_context(self, config):
        # jx into the data region: decodable target, no instruction there
        src = (
            "    .data\nbuf:\n    .word 1, 2\n    .text\n"
            "main:\n    la a2, buf\n    jx a2\n    halt\n"
        )
        program = assemble(src, "wildjump", isa=config.isa)
        with pytest.raises(SimulationError) as excinfo:
            Simulator(config, program).run()
        message = str(excinfo.value)
        assert "nearest preceding symbol: 'buf'" in message
        assert "last retired instruction at" in message
