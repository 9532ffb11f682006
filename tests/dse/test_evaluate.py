"""Evaluation engine: scoring, memo, failures."""

import pytest

from repro.core.runner import TooManyFailures
from repro.dse import (
    CandidateScore,
    EvaluationEngine,
    Knob,
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

    def test_explore_accepts_only_serial_jobs(self, synthetic_model, toy_space):
        from repro.dse import ExhaustiveStrategy, explore

        with pytest.raises(ValueError, match="jobs must be 1"):
            explore(synthetic_model, toy_space, ExhaustiveStrategy(), jobs=2)


class TestMemo:
    def test_revisits_are_free(self, synthetic_model, toy_space):
        engine = EvaluationEngine(synthetic_model, toy_space)
        batch = [toy_space.candidate_at(0), toy_space.candidate_at(1)]
        first = engine.evaluate(batch)
        again = engine.evaluate(batch)
        assert engine.evaluated == 2
        assert engine.memo_hits == 2
        assert [s.edp for s in again] == [s.edp for s in first]


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

    def test_progress_reports_failures(self, synthetic_model):
        space = _broken_space()
        messages = []
        engine = EvaluationEngine(synthetic_model, space, progress=messages.append)
        engine.evaluate(list(space.candidates()))
        assert any("FAILED" in message for message in messages)
        assert any("scored" in message for message in messages)
