"""Exploration must compile each (program, lowering key) pair exactly once.

The lowering key (:attr:`repro.xtcore.ProcessorConfig.lowering_key`)
covers only what compilation reads, so candidates that differ in cache
geometry or operating point share one lowering.
"""

import pytest

from repro.dse import ExhaustiveStrategy, explore, get_space
from repro.dse.evaluate import EvaluationEngine
from repro.xtcore import compilation_cache

from .conftest import make_toy_space


def test_explore_compiles_each_pair_exactly_once(synthetic_model):
    space = make_toy_space(with_pad=False)  # 3 distinct design points
    candidates = list(space.candidates())

    cache = compilation_cache()
    cache.clear()
    engine = EvaluationEngine(synthetic_model, space)
    scores = engine.evaluate(candidates)
    assert len(scores) == len(candidates)
    assert cache.compilations == len(candidates)

    # warm re-evaluation with a fresh engine (no per-run memo): the
    # compilation cache absorbs every lowering, so nothing recompiles
    warm = EvaluationEngine(synthetic_model, space)
    warm_scores = warm.evaluate(list(space.candidates()))
    assert len(warm_scores) == len(candidates)
    assert cache.compilations == len(candidates)
    assert cache.hits >= len(candidates)


def test_repeated_sessions_share_one_lowering(synthetic_model):
    space = make_toy_space(with_pad=False)
    candidate = next(space.candidates())
    config, program = candidate.build()

    cache = compilation_cache()
    cache.clear()
    from repro.obs import run_session

    for _ in range(4):
        run_session(config, program)
    assert cache.compilations == 1
    assert cache.hits == 3


@pytest.mark.parametrize(
    "space_name,impls", [("reed_solomon_tuned", 4), ("fir_tuned", 3)]
)
def test_cold_tuned_explore_compiles_one_lowering_per_impl(
    synthetic_model, space_name, impls
):
    # every impl is crossed with 27 cache geometries, none of which the
    # lowering reads
    space = get_space(space_name)
    compilation_cache().clear()
    report = explore(synthetic_model, space, ExhaustiveStrategy())
    assert not report.failures
    assert len(report.scores) == space.size
    assert len({score.assignment["impl"] for score in report.scores}) == impls
    assert compilation_cache().compilations == impls
