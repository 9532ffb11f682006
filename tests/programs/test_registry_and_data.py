"""Tests for the benchmark plumbing: LCG data, case registry, variants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import TraceObserver
from repro.programs import BenchmarkCase, Lcg, expect_word, expect_words, rand_words
from repro.programs.data import chunked, format_words
from repro.programs.extensions import mul16_spec
from repro.programs.testsuite import dsp_extension_config
from repro.programs.variants import _make_density_case


class TestLcg:
    def test_deterministic(self):
        assert Lcg(42).words(10) == Lcg(42).words(10)
        assert rand_words(42, 10) == Lcg(42).words(10)

    def test_different_seeds_differ(self):
        assert Lcg(1).words(10) != Lcg(2).words(10)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([8, 16, 32]))
    def test_width_respected(self, seed, bits):
        for value in Lcg(seed).words(20, bits=bits):
            assert 0 <= value < (1 << bits)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=1000))
    def test_below_bound(self, seed, bound):
        lcg = Lcg(seed)
        for _ in range(20):
            assert 0 <= lcg.below(bound) < bound

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Lcg(1).below(0)


class TestFormatting:
    def test_format_words(self):
        text = format_words([1, 2, 3], per_line=2)
        assert text == "    .word 1, 2\n    .word 3"

    def test_format_bytes_directive(self):
        text = format_words([255], directive=".byte")
        assert text == "    .byte 255"

    def test_chunked(self):
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]


class TestBenchmarkCase:
    def test_build_cached(self):
        case = BenchmarkCase(
            name="cache-check",
            description="",
            source="main:\n    halt\n",
        )
        config_a, program_a = case.build()
        config_b, program_b = case.build()
        assert config_a is config_b
        assert program_a is program_b

    def test_spec_factories_compiled(self):
        case = BenchmarkCase(
            name="with-spec",
            description="",
            source="main:\n    mul16 a2, a3, a4\n    halt\n",
            spec_factories=(mul16_spec,),
        )
        config, _ = case.build()
        assert "mul16" in config.isa

    def test_shared_config_wins(self):
        shared = dsp_extension_config()
        case = BenchmarkCase(
            name="shared",
            description="",
            source="main:\n    halt\n",
            shared_config=shared,
        )
        config, _ = case.build()
        assert config is shared

    def test_run_verified_raises_on_bad_check(self):
        case = BenchmarkCase(
            name="failing",
            description="",
            source="    .data\nout: .word 0\n    .text\nmain:\n    halt\n",
            check=expect_word("out", 999),
        )
        with pytest.raises(AssertionError, match="output mismatch"):
            case.run_verified()

    def test_expect_words_reports_indices(self):
        case = BenchmarkCase(
            name="multi-fail",
            description="",
            source="    .data\nbuf: .word 1, 2, 3\n    .text\nmain:\n    halt\n",
            check=expect_words("buf", [1, 99, 98]),
        )
        with pytest.raises(AssertionError, match=r"\[1\] got 0x2"):
            case.run_verified()


class TestDensityVariants:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="stateless"):
            _make_density_case("bad", dsp_extension_config(), ("mac16",), 0, 10, 1)

    def test_generated_case_verifies(self):
        case = _make_density_case(
            "gen-check", dsp_extension_config(), ("mul16", "add4x8"), 5, 40, 12345
        )
        result = case.run_verified()
        assert result.stats.custom_counts["mul16"] == 40
        assert result.stats.custom_counts["add4x8"] == 40

    def test_data_mask_narrows_operands(self):
        narrow = _make_density_case(
            "narrow-data", dsp_extension_config(), ("mul16",), 0, 30, 7, data_mask=0xF
        )
        tracer = TraceObserver()
        narrow.run_verified(observers=(tracer,))
        for record in tracer.records:
            if record.mnemonic == "mul16":
                assert all(op <= 0xF for op in record.operands)

    def test_pad_emits_filler_branches(self):
        case = _make_density_case(
            "branchy", dsp_extension_config(), ("sum4",), 14, 25, 9
        )
        result = case.run_verified()
        # pads 5,12 are never-taken `bne a0,a0`; pads 6,13 always-taken
        from repro.isa import InstructionClass

        assert result.stats.class_counts[InstructionClass.BRANCH_UNTAKEN] >= 2 * 25
        assert result.stats.class_counts[InstructionClass.BRANCH_TAKEN] >= 2 * 25

    def test_density_changes_custom_share(self):
        dense = _make_density_case("d", dsp_extension_config(), ("mul16",), 0, 50, 3)
        sparse = _make_density_case("s", dsp_extension_config(), ("mul16",), 15, 50, 3)
        dense_stats = dense.run().stats
        sparse_stats = sparse.run().stats
        dense_share = dense_stats.custom_counts["mul16"] / dense_stats.total_instructions
        sparse_share = sparse_stats.custom_counts["mul16"] / sparse_stats.total_instructions
        assert dense_share > 2 * sparse_share
