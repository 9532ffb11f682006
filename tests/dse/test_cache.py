"""Content digests and the candidate score key."""

from repro.dse import get_space
from repro.dse.cache import candidate_cache_key

from .conftest import make_toy_space


class TestDigests:
    def test_model_digest_stable_and_content_sensitive(self, synthetic_model):
        import numpy as np

        from repro.core import EnergyMacroModel

        assert synthetic_model.digest() == synthetic_model.digest()
        other = EnergyMacroModel(
            synthetic_model.template,
            np.asarray(synthetic_model.coefficients) + 1.0,
        )
        assert other.digest() != synthetic_model.digest()

    def test_program_digest_distinguishes_programs(self):
        space = make_toy_space()
        _, prog_a = space.build({"n": 2, "pad": 0})
        _, prog_b = space.build({"n": 4, "pad": 0})
        assert prog_a.digest() != prog_b.digest()
        assert prog_a.digest() == prog_a.digest()


class TestCandidateCacheKey:
    def test_stable_across_separate_builds(self, synthetic_model):
        space = get_space("reed_solomon")
        digest = synthetic_model.digest()
        keys = []
        for _ in range(2):
            config, program = space.build({"impl": "gfmac"})
            keys.append(candidate_cache_key(digest, config, program, 1000))
        assert keys[0] == keys[1]

    def test_sensitive_to_every_component(self, synthetic_model):
        space = make_toy_space()
        digest = synthetic_model.digest()
        config, program = space.build({"n": 2, "pad": 0})
        base = candidate_cache_key(digest, config, program, 1000)
        other_config, other_program = space.build({"n": 4, "pad": 0})
        assert candidate_cache_key(digest, config, program, 2000) != base
        assert candidate_cache_key("x" * 64, config, program, 1000) != base
        assert (
            candidate_cache_key(digest, other_config, other_program, 1000) != base
        )
