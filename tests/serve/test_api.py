"""Request parsing/validation and the content address requests coalesce on."""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.dse.cache import candidate_cache_key
from repro.serve import parse_estimate, parse_explore
from repro.serve.api import ApiError, MAX_SOURCE_BYTES
from repro.xtcore import build_processor


class TestParseEstimate:
    def test_benchmark_form(self):
        req = parse_estimate({"benchmark": "tp01_alu_mix"})
        assert req.benchmark == "tp01_alu_mix"
        assert req.source is None
        assert req.name == "tp01_alu_mix"
        assert req.extensions == ()

    def test_inline_form(self):
        req = parse_estimate(
            {
                "program": {"source": "main:\n    halt\n", "name": "p"},
                "extensions": ["mul16"],
                "max_instructions": 500,
                "variables": True,
            }
        )
        assert req.source is not None
        assert req.extensions == ("mul16",)
        assert req.max_instructions == 500
        assert req.variables

    def test_extensions_accept_comma_string(self):
        req = parse_estimate(
            {"program": {"source": "main:\n    halt\n"}, "extensions": "mul16, mac16"}
        )
        assert req.extensions == ("mul16", "mac16")

    @pytest.mark.parametrize(
        "body",
        [
            {},  # neither form
            {"benchmark": "a", "program": {"source": "x"}},  # both forms
            {"benchmark": ""},
            {"benchmark": "a", "extensions": ["mul16"]},  # ext on benchmark
            {"program": {"source": ""}},
            {"program": {"source": "x", "name": ""}},
            {"program": {"source": "x"}, "max_instructions": 0},
            {"program": {"source": "x"}, "max_instructions": True},
            {"program": {"source": "x"}, "variables": "yes"},
            {"program": {"source": "x"}, "extensions": [1]},
            [],  # not an object
        ],
    )
    def test_rejects_bad_bodies(self, body):
        with pytest.raises(ApiError) as exc_info:
            parse_estimate(body)
        assert exc_info.value.status == 400

    def test_rejects_oversized_source(self):
        body = {"program": {"source": "x" * (MAX_SOURCE_BYTES + 1)}}
        with pytest.raises(ApiError) as exc_info:
            parse_estimate(body)
        assert exc_info.value.status == 413

    def test_rejects_absurd_budget(self):
        with pytest.raises(ApiError):
            parse_estimate(
                {"program": {"source": "x"}, "max_instructions": 10**12}
            )


class TestParseExplore:
    def test_defaults(self):
        req = parse_explore({"space": "reed_solomon"})
        assert req.strategy == "exhaustive"
        assert req.objective == "edp"
        assert req.seed == 0
        assert req.budget is None

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"space": "s", "strategy": "annealing"},
            {"space": "s", "budget": 0},
            {"space": "s", "objective": "speed"},
            {"space": "s", "seed": "one"},
            {"space": "s", "top_k": 0},
        ],
    )
    def test_rejects_bad_bodies(self, body):
        with pytest.raises(ApiError) as exc_info:
            parse_explore(body)
        assert exc_info.value.status == 400


class TestRequestKey:
    """The server addresses requests by the exploration cache key."""

    def test_sensitive_to_each_component(self):
        config = build_processor("key-test")
        program = assemble("main:\n    halt\n", "p", isa=config.isa)
        other = assemble("main:\n    nop\n    halt\n", "p", isa=config.isa)
        # same text, different data image
        data = "    .data\nv: .word {}\n    .text\nmain:\n    halt\n"
        data_a = assemble(data.format(1), "p", isa=config.isa)
        data_b = assemble(data.format(2), "p", isa=config.isa)
        base = candidate_cache_key("m" * 64, config, program, 1000)
        assert candidate_cache_key("n" * 64, config, program, 1000) != base
        assert candidate_cache_key("m" * 64, config, other, 1000) != base
        assert candidate_cache_key("m" * 64, config, program, 999) != base
        assert candidate_cache_key("m" * 64, config, data_a, 1000) != (
            candidate_cache_key("m" * 64, config, data_b, 1000)
        )

    def test_name_insensitive(self):
        """Cosmetic program names must not defeat coalescing."""
        config = build_processor("key-test")
        a = assemble("main:\n    halt\n", "first", isa=config.isa)
        b = assemble("main:\n    halt\n", "second", isa=config.isa)
        assert candidate_cache_key("m" * 64, config, a, 1000) == candidate_cache_key(
            "m" * 64, config, b, 1000
        )


class TestDeadlineMs:
    def test_defaults_to_none(self):
        assert parse_estimate({"benchmark": "b"}).deadline_ms is None

    def test_accepts_positive_deadline(self):
        req = parse_estimate({"benchmark": "b", "deadline_ms": 2500})
        assert req.deadline_ms == 2500

    @pytest.mark.parametrize("bad", [0, -5, True, 1.5, "100"])
    def test_rejects_non_positive_or_non_int(self, bad):
        with pytest.raises(ApiError) as excinfo:
            parse_estimate({"benchmark": "b", "deadline_ms": bad})
        assert excinfo.value.status == 400

    def test_rejects_over_ceiling(self):
        from repro.serve.api import MAX_DEADLINE_MS

        with pytest.raises(ApiError) as excinfo:
            parse_estimate({"benchmark": "b", "deadline_ms": MAX_DEADLINE_MS + 1})
        assert excinfo.value.status == 400
