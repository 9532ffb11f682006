"""The compilation cache's ``build`` tier under design-space exploration.

Cache geometry and operating point change neither a bundled design
point's extensions nor its program, so an exploration builds each
distinct ``impl`` once and shares the pieces across its candidates.
"""

from repro.dse import RandomStrategy, explore, get_space, with_operating_points
from repro.dse import space as space_module
from repro.dse.evaluate import _score_points
from repro.xtcore import DEFAULT_MAX_INSTRUCTIONS, compilation_cache


def _dvfs_space():
    return with_operating_points(get_space("reed_solomon_tuned"))


def _bits(scores):
    return [(s.key, s.energy.hex(), s.cycles, s.area.hex()) for s in scores]


def _cold_explore(model, space, budget, seed):
    compilation_cache().clear()
    return explore(model, space, RandomStrategy(budget, seed=seed))


def test_cold_explore_builds_each_impl_once(synthetic_model):
    report = _cold_explore(synthetic_model, _dvfs_space(), budget=48, seed=5)
    assert not report.failures
    impls = {score.assignment["impl"] for score in report.scores}
    assert len(impls) > 1
    tier = compilation_cache().info()["tiers"]["build"]
    assert tier["misses"] == tier["compilations"] == tier["entries"] == len(impls)
    assert tier["hits"] == len(report.scores) - len(impls)
    assert tier["evictions"] == 0


def test_candidates_of_one_impl_share_extensions_and_program():
    compilation_cache().clear()
    space = _dvfs_space()
    point = space.knobs[-1].values[0]
    small = {"icache_kb": 4, "dcache_kb": 4, "dcache_ways": 1}
    large = {"icache_kb": 16, "dcache_kb": 8, "dcache_ways": 2}
    first, program = space.build({"impl": "gfmac", "operating_point": point, **small})
    second, again = space.build({"impl": "gfmac", "operating_point": point, **large})
    assert first.icache != second.icache
    assert first.extensions is second.extensions
    assert program is again


def test_clear_empties_the_tier_and_resets_its_counters():
    cache = compilation_cache()
    cache.clear()
    space = get_space("fir_tuned")
    for candidate in list(space.candidates())[:3]:
        candidate.build()
    assert cache.info()["tiers"]["build"]["entries"] == 1
    cache.clear()
    assert cache.info()["tiers"]["build"] == {
        "entries": 0,
        "hits": 0,
        "misses": 0,
        "compilations": 0,
        "evictions": 0,
    }


def test_failing_build_is_not_cached(synthetic_model, monkeypatch):
    calls = []
    real_build = space_module._build_impl

    def flaky_build(workload, impl):
        if impl == "gfmac":
            calls.append(impl)
            raise RuntimeError("gfmac extension does not build")
        return real_build(workload, impl)

    monkeypatch.setattr(space_module, "_build_impl", flaky_build)
    space = get_space("reed_solomon_tuned")
    report = _cold_explore(synthetic_model, space, budget=space.size, seed=0)

    broken = [c.key for c in space.candidates() if c.assignment_dict["impl"] == "gfmac"]
    assert len(broken) == 27
    # no cached failure: every broken candidate ran the builder itself
    # (the serial path may try it twice) and got its own record
    assert len(calls) >= len(broken)
    assert sorted(f.name for f in report.failures) == sorted(broken)
    assert all(f.stage == "build" for f in report.failures)
    assert all(f.error_type == "RuntimeError" for f in report.failures)
    assert len(report.scores) == space.size - len(broken)
    tier = compilation_cache().info()["tiers"]["build"]
    assert tier["entries"] == 3  # sw, gfmul, dual; never the failure
    assert tier["misses"] == 3 + len(calls)


def test_scores_match_per_candidate_cold_builds(synthetic_model):
    space = _dvfs_space()
    report = _cold_explore(synthetic_model, space, budget=12, seed=11)
    assert not report.failures

    reference = []
    for score in report.scores:
        compilation_cache().clear()
        raw = _score_points(
            synthetic_model, space, [score.assignment], DEFAULT_MAX_INSTRUCTIONS
        )[0][0]
        assert raw["ok"], raw
        reference.append((raw["key"], raw["energy"].hex(), raw["cycles"], raw["area"].hex()))
    assert _bits(report.scores) == reference

