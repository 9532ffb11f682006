"""Content-addressed result cache: keying, round-trip, corruption."""

import json
import pathlib

from repro.dse import (
    ResultCache,
    candidate_cache_key,
    get_space,
    model_digest,
    program_digest,
)

from .conftest import make_toy_space


class TestDigests:
    def test_model_digest_stable_and_content_sensitive(self, synthetic_model):
        import numpy as np

        from repro.core import EnergyMacroModel

        assert model_digest(synthetic_model) == model_digest(synthetic_model)
        other = EnergyMacroModel(
            synthetic_model.template,
            np.asarray(synthetic_model.coefficients) + 1.0,
        )
        assert model_digest(other) != model_digest(synthetic_model)

    def test_program_digest_distinguishes_programs(self):
        space = make_toy_space()
        config, prog_a = space.build({"n": 2, "pad": 0})
        _, prog_b = space.build({"n": 4, "pad": 0})
        assert program_digest(prog_a, config) != program_digest(prog_b, config)
        assert program_digest(prog_a, config) == program_digest(prog_a, config)


class TestCandidateCacheKey:
    def test_stable_across_separate_builds(self, synthetic_model):
        space = get_space("reed_solomon")
        digest = model_digest(synthetic_model)
        keys = []
        for _ in range(2):
            config, program = space.build({"impl": "gfmac"})
            keys.append(candidate_cache_key(digest, config, program, 1000))
        assert keys[0] == keys[1]

    def test_sensitive_to_every_component(self, synthetic_model):
        space = make_toy_space()
        digest = model_digest(synthetic_model)
        config, program = space.build({"n": 2, "pad": 0})
        base = candidate_cache_key(digest, config, program, 1000)
        other_config, other_program = space.build({"n": 4, "pad": 0})
        assert candidate_cache_key(digest, config, program, 2000) != base
        assert candidate_cache_key("x" * 64, config, program, 1000) != base
        assert (
            candidate_cache_key(digest, other_config, other_program, 1000) != base
        )


class TestResultCache:
    PAYLOAD = {
        "key": "n=2,pad=0",
        "assignment": {"n": 2, "pad": 0},
        "program": "toy",
        "processor": "toy",
        "energy": 10.0,
        "cycles": 5,
        "area": 0.0,
    }

    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, dict(self.PAYLOAD))
        got = cache.get(key)
        assert got is not None and got["energy"] == 10.0
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "cd" + "0" * 62
        cache.put(key, dict(self.PAYLOAD))
        path = pathlib.Path(cache._path(key))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.hits == 0 and cache.misses == 2

    def test_corrupt_entry_is_quarantined_aside(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "aa" + "0" * 62
        cache.put(key, dict(self.PAYLOAD))
        path = pathlib.Path(cache._path(key))
        path.write_text('{"format": "torn-half-of-a', encoding="utf-8")

        assert cache.get(key) is None
        # the damaged file moved aside for forensics; the slot is free
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert cache.info()["corrupt_entries"] == 1

        # a rewrite fills the slot cleanly and reads back as a hit
        cache.put(key, dict(self.PAYLOAD))
        assert cache.get(key) is not None
        assert cache.info()["corrupt_entries"] == 1

    def test_missing_entry_is_a_plain_miss_not_corruption(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get("bb" + "0" * 62) is None
        info = cache.info()
        assert info["misses"] == 1
        assert info["corrupt_entries"] == 0
        assert not list((tmp_path / "c").rglob("*.corrupt"))

    def test_wrong_format_tag_counts_as_corrupt(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "cc" + "0" * 62
        path = pathlib.Path(cache._path(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format": "ancient/0"}), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.info()["corrupt_entries"] == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ef" + "0" * 62
        cache.put(key, dict(self.PAYLOAD))
        assert (tmp_path / "c" / "ef" / f"{key}.json").exists()

