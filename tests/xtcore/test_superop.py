"""Unit tests for the block-level superop tier.

The differential suites (tests/integration/test_dispatch_differential.py)
pin bitwise equivalence; these tests pin the *structure*: block
discovery, fused-closure presence, dispatch-path selection, and the superop
artifact tier of the compilation cache.
"""

import pytest

from repro.asm import assemble
from repro.isa import base_isa
from repro.obs import SimObserver
from repro.obs.tally import RunTallyObserver
from repro.xtcore import (
    ReferenceSimulator,
    Simulator,
    build_processor,
    compile_program,
    compile_superops,
)
from repro.xtcore.compiled import (
    BLK_FN,
    BLK_LEN,
    BLK_NEXT_IDX,
    BLK_START,
    CompilationCache,
    OP_INTERIOR,
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


class TestCompileSuperops:
    def test_block_discovery(self, config, program):
        executable = compile_program(config, program)
        superops = compile_superops(executable, config)
        assert len(superops) >= 2  # entry run and loop body at minimum
        assert superops.program_digest == executable.program_digest
        assert superops.config_fingerprint == executable.config_fingerprint
        # block_at maps exactly the leaders that head each block
        for block in superops.blocks:
            assert superops.block_at[block[BLK_START]] is block
            assert block[BLK_LEN] >= 1
        assert superops.fused_ops <= len(executable.ops)
        assert "blocks over" in repr(superops)

    def test_blocks_cover_only_interior_ops(self, config, program):
        executable = compile_program(config, program)
        superops = compile_superops(executable, config)
        for block in superops.blocks:
            for i in range(block[BLK_START], block[BLK_START] + block[BLK_LEN]):
                assert executable.ops[i][OP_INTERIOR]

    def test_fused_closures_present_for_base_isa(self, config, program):
        # every op in this program is inlinable, so every block carries a
        # fused closure (non-inlinable ops would leave BLK_FN exercising
        # the bound-callable path, still non-None)
        executable = compile_program(config, program)
        superops = compile_superops(executable, config)
        assert all(callable(block[BLK_FN]) for block in superops.blocks)

    def test_fall_through_links(self, config, program):
        executable = compile_program(config, program)
        superops = compile_superops(executable, config)
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


class TestSuperopCacheTier:
    def test_tier_counters(self, config, program):
        cache = CompilationCache(maxsize=4)
        first = cache.get_or_compile_superops(config, program)
        again = cache.get_or_compile_superops(config, program)
        assert again is first
        info = cache.info()
        assert info["tiers"]["superop"] == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "compilations": 1,
            "evictions": 0,
        }
        # the ops tier was populated on the way (miss then internal hit)
        assert info["tiers"]["ops"]["entries"] == 1

    def test_tier_eviction_and_clear(self, config):
        cache = CompilationCache(maxsize=1)
        isa = base_isa()
        for name, bound in (("one", 10), ("two", 11)):
            prog = assemble(
                LOOP_SOURCE.replace("movi a3, 10", f"movi a3, {bound}"),
                name,
                isa=isa,
            )
            cache.get_or_compile_superops(config, prog)
        info = cache.info()
        assert info["tiers"]["superop"]["evictions"] == 1
        assert info["tiers"]["superop"]["entries"] == 1
        cache.clear()
        info = cache.info()
        assert info["tiers"]["superop"] == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "compilations": 0,
            "evictions": 0,
        }
