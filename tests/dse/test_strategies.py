"""Strategies, Pareto frontier, ranking and the explore/report layer."""

import json
import random

import pytest

from repro.dse import (
    EvaluationEngine,
    ExhaustiveStrategy,
    GreedyStrategy,
    RandomStrategy,
    explore,
    make_strategy,
    pareto_frontier,
    rank_scores,
)
from repro.dse.evaluate import CandidateScore
from repro.dse.pareto import PARETO_AXES, dominates


def _engine(model, space, **kwargs):
    return EvaluationEngine(model, space, **kwargs)


class TestExhaustive:
    def test_covers_the_space(self, synthetic_model, toy_space):
        engine = _engine(synthetic_model, toy_space)
        scores = ExhaustiveStrategy().explore(toy_space, engine.evaluate)
        assert len(scores) == toy_space.size
        assert len({s.key for s in scores}) == toy_space.size


class TestRandom:
    def test_deterministic_for_fixed_seed(self, synthetic_model, toy_space):
        runs = []
        for _ in range(2):
            engine = _engine(synthetic_model, toy_space)
            scores = RandomStrategy(budget=4, seed=11).explore(
                toy_space, engine.evaluate
            )
            runs.append([s.key for s in scores])
        assert runs[0] == runs[1]
        assert len(set(runs[0])) == 4

    def test_different_seed_different_sample(self, synthetic_model, toy_space):
        samples = []
        for seed in (0, 1):
            engine = _engine(synthetic_model, toy_space)
            scores = RandomStrategy(budget=4, seed=seed).explore(
                toy_space, engine.evaluate
            )
            samples.append(tuple(s.key for s in scores))
        assert samples[0] != samples[1]

    def test_budget_covering_space_is_exhaustive(self, synthetic_model, toy_space):
        engine = _engine(synthetic_model, toy_space)
        scores = RandomStrategy(budget=100, seed=0).explore(
            toy_space, engine.evaluate
        )
        assert len(scores) == toy_space.size

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            RandomStrategy(budget=0)


class TestGreedy:
    def test_finds_the_monotone_optimum(self, synthetic_model, toy_space):
        # cycles (and thus energy and EDP) grow with both knobs, so the
        # hill-climb must land on the global minimum n=2, pad=0
        engine = _engine(synthetic_model, toy_space)
        scores = GreedyStrategy(seed=5).explore(toy_space, engine.evaluate)
        best = min(scores, key=lambda s: s.edp)
        assert best.assignment == {"n": 2, "pad": 0}

    def test_deterministic_for_fixed_seed(self, synthetic_model, toy_space):
        runs = []
        for _ in range(2):
            engine = _engine(synthetic_model, toy_space)
            scores = GreedyStrategy(seed=3, restarts=2).explore(
                toy_space, engine.evaluate
            )
            runs.append(sorted(s.key for s in scores))
        assert runs[0] == runs[1]

    def test_restarts_share_the_memo(self, synthetic_model, toy_space):
        engine = _engine(synthetic_model, toy_space)
        GreedyStrategy(seed=0, restarts=3).explore(toy_space, engine.evaluate)
        # every design point is simulated at most once no matter how many
        # walks revisit it
        assert engine.evaluated <= toy_space.size

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            GreedyStrategy(objective="beauty")
        with pytest.raises(ValueError):
            GreedyStrategy(max_steps=0)
        with pytest.raises(ValueError):
            GreedyStrategy(restarts=0)


class TestMakeStrategy:
    def test_builds_each_kind(self):
        assert make_strategy("exhaustive").name == "exhaustive"
        assert make_strategy("random", budget=3, seed=1).describe() == (
            "random(budget=3, seed=1)"
        )
        assert make_strategy("greedy", objective="energy").name == "greedy"

    def test_random_requires_budget(self):
        with pytest.raises(ValueError, match="budget"):
            make_strategy("random")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("simulated-annealing")


class TestParetoAndRanking:
    def test_frontier_and_ranking(self, synthetic_model, toy_space):
        engine = _engine(synthetic_model, toy_space)
        scores = ExhaustiveStrategy().explore(toy_space, engine.evaluate)
        frontier = pareto_frontier(scores)
        assert frontier  # never empty for a non-empty score set
        frontier_keys = {s.key for s in frontier}
        # in a monotone space only the cheapest point is non-dominated
        assert frontier_keys == {"n=2,pad=0"}
        ranked = rank_scores(scores, "edp", top_k=3)
        assert len(ranked) == 3
        assert ranked[0].key == "n=2,pad=0"
        assert [s.edp for s in ranked] == sorted(s.edp for s in ranked)

    def test_ranking_deduplicates(self, synthetic_model, toy_space):
        engine = _engine(synthetic_model, toy_space)
        scores = ExhaustiveStrategy().explore(toy_space, engine.evaluate)
        ranked = rank_scores(scores + scores, "edp")
        assert len(ranked) == toy_space.size


def _random_scores(seed: int, count: int) -> list[CandidateScore]:
    """Scores on a coarse grid (many axis ties) with some keys repeated."""
    rng = random.Random(seed)
    return [
        CandidateScore(
            key=f"k{rng.randrange(count // 2 + 1)}",
            assignment={},
            program_name="p",
            processor_name="x",
            energy=rng.choice([1.0, 1.5, 2.0, 2.5]),
            cycles=rng.choice([100, 120, 140]),
            area=rng.choice([0.5, 1.0, 1.5]),
        )
        for _ in range(count)
    ]


def _brute_force_frontier(scores, axes):
    unique = {}
    for score in scores:
        unique.setdefault(score.key, score)
    points = list(unique.values())
    kept = [c for c in points if not any(dominates(o, c, axes) for o in points)]
    return sorted(kept, key=lambda s: (tuple(s.objective(a) for a in axes), s.key))


class TestParetoFrontierBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("axes", [PARETO_AXES, ("energy", "cycles"), ("edp", "area")])
    def test_matches_dominates_filter(self, seed, axes):
        scores = _random_scores(seed, count=40)
        assert len({s.key for s in scores}) < len(scores)  # duplicate keys present
        frontier = pareto_frontier(scores, axes)
        expected = _brute_force_frontier(scores, axes)
        assert [id(s) for s in frontier] == [id(s) for s in expected]

    def test_empty(self):
        assert pareto_frontier([]) == []


class TestExploreReport:
    def test_report_contents_and_renderings(self, synthetic_model, toy_space):
        report = explore(synthetic_model, toy_space, ExhaustiveStrategy())
        assert report.ok
        assert report.space_size == toy_space.size
        assert len(report.scores) == toy_space.size
        assert report.best.key == report.ranked(top_k=1)[0].key
        assert report.candidates_per_second > 0

        table = report.table(top_k=4)
        assert "space toy" in table and "pareto frontier" in table

        payload = json.loads(report.to_json())
        assert payload["format"] == "repro-dse-report/1"
        assert len(payload["scores"]) == toy_space.size

        csv_text = report.to_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == toy_space.size + 1
        assert lines[0].startswith("rank,key,program,processor,n,pad")

    def test_greedy_report_counts_scored_subset(self, synthetic_model, toy_space):
        report = explore(
            synthetic_model, toy_space, GreedyStrategy(seed=1), objective="edp"
        )
        assert 0 < len(report.scores) <= toy_space.size
        assert report.best is not None
