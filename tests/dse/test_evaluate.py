"""Evaluation engine: scoring, memo, disk cache, parallelism, failures."""

import multiprocessing
import os

import pytest

from repro.core.runner import TooManyFailures
from repro.dse import (
    CandidateScore,
    EvaluationEngine,
    Knob,
    ResultCache,
    SearchSpace,
)

from .conftest import build_toy_point


def _broken_builder(assignment):
    if assignment["n"] == 4:
        raise RuntimeError("synthetic build explosion")
    return build_toy_point(assignment)


def _broken_space():
    return SearchSpace(
        name="broken",
        description="one design point fails to build",
        knobs=(Knob("n", (2, 4, 8)),),
        builder=_broken_builder,
    )


class TestScoring:
    def test_scores_in_input_order(self, synthetic_model, toy_space):
        engine = EvaluationEngine(synthetic_model, toy_space)
        candidates = list(toy_space.candidates())
        scores = engine.evaluate(candidates)
        assert [s.key for s in scores] == [c.key for c in candidates]
        assert engine.evaluated == toy_space.size
        for score in scores:
            assert score.energy > 0 and score.cycles > 0
            assert score.edp == score.energy * score.cycles
            assert score.area == 0.0  # toy points have no custom hardware
            assert not score.from_cache

    def test_cycles_grow_with_loop_length(self, synthetic_model, toy_space):
        engine = EvaluationEngine(synthetic_model, toy_space)
        short = engine.evaluate([toy_space.candidate({"n": 2, "pad": 0})])[0]
        long = engine.evaluate([toy_space.candidate({"n": 8, "pad": 4})])[0]
        assert long.cycles > short.cycles

    def test_objective_lookup(self, synthetic_model, toy_space):
        engine = EvaluationEngine(synthetic_model, toy_space)
        score = engine.evaluate([toy_space.candidate_at(0)])[0]
        assert score.objective("edp") == score.edp
        assert score.objective("energy") == score.energy
        with pytest.raises(ValueError, match="unknown objective"):
            score.objective("beauty")

    def test_payload_round_trip(self, synthetic_model, toy_space):
        engine = EvaluationEngine(synthetic_model, toy_space)
        score = engine.evaluate([toy_space.candidate_at(3)])[0]
        clone = CandidateScore.from_payload(score.to_payload())
        assert clone.key == score.key and clone.edp == score.edp

    def test_rejects_bad_jobs(self, synthetic_model, toy_space):
        with pytest.raises(ValueError):
            EvaluationEngine(synthetic_model, toy_space, jobs=0)


class TestMemo:
    def test_revisits_are_free(self, synthetic_model, toy_space):
        engine = EvaluationEngine(synthetic_model, toy_space)
        batch = [toy_space.candidate_at(0), toy_space.candidate_at(1)]
        first = engine.evaluate(batch)
        again = engine.evaluate(batch)
        assert engine.evaluated == 2
        assert engine.memo_hits == 2
        assert [s.edp for s in again] == [s.edp for s in first]


class TestDiskCache:
    def test_second_run_hits_for_every_candidate(
        self, synthetic_model, toy_space, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        cold = EvaluationEngine(
            synthetic_model, toy_space, cache=ResultCache(cache_dir)
        )
        cold_scores = cold.evaluate(list(toy_space.candidates()))
        assert cold.cache_misses == toy_space.size
        assert cold.cache_hits == 0

        warm = EvaluationEngine(
            synthetic_model, toy_space, cache=ResultCache(cache_dir)
        )
        warm_scores = warm.evaluate(list(toy_space.candidates()))
        assert warm.cache_hits == toy_space.size
        assert warm.cache_misses == 0
        assert warm.evaluated == 0
        assert all(score.from_cache for score in warm_scores)
        assert [s.edp for s in warm_scores] == [s.edp for s in cold_scores]

    def test_model_change_invalidates(self, synthetic_model, toy_space, tmp_path):
        import numpy as np

        from repro.core import EnergyMacroModel

        cache_dir = str(tmp_path / "cache")
        EvaluationEngine(
            synthetic_model, toy_space, cache=ResultCache(cache_dir)
        ).evaluate([toy_space.candidate_at(0)])
        other_model = EnergyMacroModel(
            synthetic_model.template,
            np.asarray(synthetic_model.coefficients) * 2.0,
        )
        engine = EvaluationEngine(
            other_model, toy_space, cache=ResultCache(cache_dir)
        )
        engine.evaluate([toy_space.candidate_at(0)])
        assert engine.cache_hits == 0 and engine.cache_misses == 1


class TestParallel:
    def test_parallel_matches_serial(self, synthetic_model, toy_space):
        candidates = list(toy_space.candidates())
        serial = EvaluationEngine(synthetic_model, toy_space, jobs=1).evaluate(
            candidates
        )
        parallel = EvaluationEngine(synthetic_model, toy_space, jobs=2).evaluate(
            candidates
        )
        assert [(s.key, s.energy, s.cycles) for s in parallel] == [
            (s.key, s.energy, s.cycles) for s in serial
        ]

    def test_parallel_with_cache(self, synthetic_model, toy_space, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = EvaluationEngine(
            synthetic_model, toy_space, jobs=2, cache=ResultCache(cache_dir)
        )
        engine.evaluate(list(toy_space.candidates()))
        warm = EvaluationEngine(
            synthetic_model, toy_space, jobs=2, cache=ResultCache(cache_dir)
        )
        warm.evaluate(list(toy_space.candidates()))
        assert warm.cache_hits == toy_space.size and warm.evaluated == 0


#: pid of the process that imported this module (the pytest parent).
#: Fork-pool workers inherit the module but have their own pid, so
#: :func:`_crashing_builder` can die only inside a worker and stay
#: harmless in the parent's prewarm/serial paths.
_PARENT_PID = os.getpid()

POISON_N = 3  # distinct from the toy loop lengths so keys never collide


def _crashing_builder(assignment):
    if assignment["n"] == POISON_N and os.getpid() != _PARENT_PID:
        os._exit(13)  # simulate a segfaulting candidate killing its worker
    return build_toy_point(assignment)


def _crashing_space(values):
    return SearchSpace(
        name="crashy",
        description="one design point kills any worker that scores it",
        knobs=(Knob("n", tuple(values)),),
        builder=_crashing_builder,
    )


@pytest.mark.faults
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker crashes need the fork pool (spawn-only platform runs serial)",
)
class TestPoolBreakage:
    def test_run_survives_a_worker_death(self, synthetic_model):
        # 12 candidates, poison first: wave 0 (jobs*4 = 8) breaks the
        # pool, waves after it must be scored serially in the parent.
        values = [POISON_N] + list(range(4, 15))
        space = _crashing_space(values)
        engine = EvaluationEngine(synthetic_model, space, jobs=2)
        candidates = list(space.candidates())
        scores = engine.evaluate(candidates)

        # exactly-once accounting: every candidate is a score or a failure
        assert len(scores) + len(engine.failures) == len(candidates)
        assert engine.pool_restarts == 1

        pool_failures = [f for f in engine.failures if f.stage == "pool"]
        assert pool_failures, "the in-flight wave must surface pool failures"
        assert all(f.stage == "pool" for f in engine.failures)
        assert f"n={POISON_N}" in {f.name for f in pool_failures}
        for failure in pool_failures:
            assert "worker pool died" in failure.message

        # the candidates the pool never saw were scored by the serial
        # fallback — the tail of the space always lands after the break
        scored_keys = {score.key for score in scores}
        for candidate in candidates[8:]:
            assert candidate.key in scored_keys

    def test_pool_failures_respect_max_failures(self, synthetic_model):
        space = _crashing_space([POISON_N, 2, 4])
        engine = EvaluationEngine(synthetic_model, space, jobs=2, max_failures=0)
        with pytest.raises(TooManyFailures):
            engine.evaluate(list(space.candidates()))

    def test_explore_reports_pool_restarts(self, synthetic_model):
        from repro.dse import ExhaustiveStrategy, explore

        space = _crashing_space([POISON_N, 2, 4])
        report = explore(synthetic_model, space, ExhaustiveStrategy(), jobs=2)
        assert report.pool_restarts == 1
        assert report.to_payload()["pool_restarts"] == 1
        assert "worker pool died 1 time(s)" in report.table()

    def test_healthy_parallel_run_reports_zero_restarts(
        self, synthetic_model, toy_space
    ):
        engine = EvaluationEngine(synthetic_model, toy_space, jobs=2)
        engine.evaluate(list(toy_space.candidates()))
        assert engine.pool_restarts == 0


class TestFailureIsolation:
    def test_bad_candidate_becomes_failure_record(self, synthetic_model):
        space = _broken_space()
        engine = EvaluationEngine(synthetic_model, space)
        scores = engine.evaluate(list(space.candidates()))
        assert [s.assignment["n"] for s in scores] == [2, 8]
        assert len(engine.failures) == 1
        failure = engine.failures[0]
        assert failure.name == "n=4"
        assert failure.stage == "build"
        assert failure.error_type == "RuntimeError"

    def test_max_failures_aborts(self, synthetic_model):
        space = _broken_space()
        engine = EvaluationEngine(synthetic_model, space, max_failures=0)
        with pytest.raises(TooManyFailures):
            engine.evaluate(list(space.candidates()))

    def test_negative_max_failures_rejected(self, synthetic_model, toy_space):
        with pytest.raises(ValueError, match="max_failures must be >= 0"):
            EvaluationEngine(synthetic_model, toy_space, max_failures=-1)

    def test_failures_isolated_under_cache_too(self, synthetic_model, tmp_path):
        space = _broken_space()
        engine = EvaluationEngine(
            synthetic_model, space, cache=ResultCache(str(tmp_path / "c"))
        )
        scores = engine.evaluate(list(space.candidates()))
        assert len(scores) == 2 and len(engine.failures) == 1

    def test_progress_reports_failures(self, synthetic_model):
        space = _broken_space()
        messages = []
        engine = EvaluationEngine(synthetic_model, space, progress=messages.append)
        engine.evaluate(list(space.candidates()))
        assert any("FAILED" in message for message in messages)
        assert any("scored" in message for message in messages)
