"""Search strategies over a :class:`~repro.dse.space.SearchSpace`.

All strategies speak one interface — ``explore(space, evaluate)`` where
``evaluate`` scores a *batch* of candidates (the engine batches and
caches inside it) — and are deterministic for a fixed seed:

=============  ============================================================
`exhaustive`   every design point, in mixed-radix enumeration order
`random`       a seeded uniform sample of ``budget`` distinct points
`greedy`       seeded-restart hill-climb over single-knob neighbor moves
=============  ============================================================

The greedy strategy returns every point it scored (its exploration
history), not just the final local optimum, so Pareto extraction and
ranking work uniformly across strategies.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from .evaluate import OBJECTIVES, CandidateScore
from .space import Candidate, SearchSpace

#: ``evaluate(batch) -> scores`` — successes only, input order preserved.
EvaluateFn = Callable[[Sequence[Candidate]], "list[CandidateScore]"]


class Strategy:
    """Base class: a named exploration policy."""

    name = "?"

    def explore(self, space: SearchSpace, evaluate: EvaluateFn) -> list[CandidateScore]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class ExhaustiveStrategy(Strategy):
    """Score every design point of the space."""

    name = "exhaustive"

    def explore(self, space: SearchSpace, evaluate: EvaluateFn) -> list[CandidateScore]:
        return evaluate(list(space.candidates()))


class RandomStrategy(Strategy):
    """Score a seeded uniform sample of ``budget`` distinct design points."""

    name = "random"

    def __init__(self, budget: int, seed: int = 0) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        self.seed = seed

    def explore(self, space: SearchSpace, evaluate: EvaluateFn) -> list[CandidateScore]:
        if self.budget >= space.size:
            return evaluate(list(space.candidates()))
        rng = random.Random(self.seed)
        indices = sorted(rng.sample(range(space.size), self.budget))
        return evaluate([space.candidate_at(index) for index in indices])

    def describe(self) -> str:
        return f"{self.name}(budget={self.budget}, seed={self.seed})"


class GreedyStrategy(Strategy):
    """Hill-climb over single-knob moves from a seeded random start.

    Each step scores every unvisited single-knob neighbor of the current
    point as one batch (so the engine can share their simulations) and
    moves to the strictly best neighbor under ``objective``; the walk
    stops at a local optimum or after ``max_steps`` moves.  ``restarts``
    independent walks share one evaluation memo through the engine,
    making repeat visits free.
    """

    name = "greedy"

    def __init__(
        self,
        seed: int = 0,
        objective: str = "edp",
        max_steps: int = 32,
        restarts: int = 1,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r} (use one of {', '.join(OBJECTIVES)})"
            )
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        self.seed = seed
        self.objective = objective
        self.max_steps = max_steps
        self.restarts = restarts

    def explore(self, space: SearchSpace, evaluate: EvaluateFn) -> list[CandidateScore]:
        rng = random.Random(self.seed)
        history: dict[str, CandidateScore] = {}
        for _ in range(self.restarts):
            start = space.candidate_at(rng.randrange(space.size))
            self._climb(space, evaluate, start, history)
        return list(history.values())

    def _climb(
        self,
        space: SearchSpace,
        evaluate: EvaluateFn,
        start: Candidate,
        history: dict[str, CandidateScore],
    ) -> None:
        current = self._score_one(evaluate, start, history)
        if current is None:
            return  # start point failed to build/score; nothing to climb from
        for _ in range(self.max_steps):
            neighbors = self._neighbors(space, current)
            scores = self._score_batch(evaluate, neighbors, history)
            best = min(
                scores,
                key=lambda s: (s.objective(self.objective), s.key),
                default=None,
            )
            if best is None or best.objective(self.objective) >= current.objective(
                self.objective
            ):
                return  # local optimum
            current = best

    def _neighbors(self, space: SearchSpace, score: CandidateScore) -> list[Candidate]:
        """All assignments differing from ``score`` in exactly one knob."""
        neighbors = []
        for knob in space.knobs:
            for value in knob.values:
                if value == score.assignment[knob.name]:
                    continue
                assignment = dict(score.assignment)
                assignment[knob.name] = value
                neighbors.append(space.candidate(assignment))
        return neighbors

    def _score_one(
        self,
        evaluate: EvaluateFn,
        candidate: Candidate,
        history: dict[str, CandidateScore],
    ) -> Optional[CandidateScore]:
        if candidate.key in history:
            return history[candidate.key]
        scores = evaluate([candidate])
        if not scores:
            return None
        history[candidate.key] = scores[0]
        return scores[0]

    def _score_batch(
        self,
        evaluate: EvaluateFn,
        candidates: list[Candidate],
        history: dict[str, CandidateScore],
    ) -> list[CandidateScore]:
        fresh = [c for c in candidates if c.key not in history]
        for score in evaluate(fresh):
            history[score.key] = score
        return [history[c.key] for c in candidates if c.key in history]

    def describe(self) -> str:
        return (
            f"{self.name}(seed={self.seed}, objective={self.objective}, "
            f"restarts={self.restarts})"
        )


def make_strategy(
    name: str,
    budget: Optional[int] = None,
    seed: int = 0,
    objective: str = "edp",
    restarts: int = 1,
) -> Strategy:
    """Build a strategy from CLI-ish parameters."""
    if name == "exhaustive":
        return ExhaustiveStrategy()
    if name == "random":
        if budget is None:
            raise ValueError("random strategy requires a --budget")
        return RandomStrategy(budget=budget, seed=seed)
    if name == "greedy":
        return GreedyStrategy(seed=seed, objective=objective, restarts=restarts)
    raise ValueError(
        f"unknown strategy {name!r} (use exhaustive, random or greedy)"
    )
