"""Pareto-frontier extraction and deterministic ranking of scores.

Exploration produces a cloud of (energy, cycles, area) points; design
selection wants (a) the non-dominated frontier across those axes and
(b) a scalar ranking under one objective (EDP by default).  Both are
deterministic: ties break on the canonical candidate key, never on
enumeration order or dict iteration.
"""

from __future__ import annotations

from typing import Sequence

from .evaluate import CandidateScore

#: The axes the frontier minimizes over.
PARETO_AXES = ("energy", "cycles", "area")


def _axis_tuple(score: CandidateScore, axes: Sequence[str]) -> tuple:
    return tuple(score.objective(axis) for axis in axes)


def dominates(a: CandidateScore, b: CandidateScore, axes: Sequence[str] = PARETO_AXES) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    a_values = _axis_tuple(a, axes)
    b_values = _axis_tuple(b, axes)
    return all(x <= y for x, y in zip(a_values, b_values)) and a_values != b_values


def pareto_frontier(
    scores: Sequence[CandidateScore], axes: Sequence[str] = PARETO_AXES
) -> list[CandidateScore]:
    """The non-dominated subset, sorted by the axis tuple then key.

    Duplicate design points (same key) are collapsed first — a strategy
    may legitimately score a point once from cache and once fresh.
    """
    unique: dict[str, CandidateScore] = {}
    for score in scores:
        unique.setdefault(score.key, score)
    # Each axis tuple once, shared by the sort and the dominance test.
    points = sorted(
        ((_axis_tuple(s, axes), s.key, s) for s in unique.values()),
        key=lambda point: point[:2],
    )
    # A dominator is no worse on every axis, so it sorts before the point
    # it dominates; dominance is transitive, so a point dominated by
    # anything is dominated by a frontier point kept before it.  Testing
    # against the frontier so far is therefore the full test (``dominates``
    # on precomputed tuples), in O(n x frontier).
    frontier: list[tuple] = []
    for values, _, candidate in points:
        if not any(
            all(x <= y for x, y in zip(kept, values)) and kept != values
            for kept, _ in frontier
        ):
            frontier.append((values, candidate))
    return [candidate for _, candidate in frontier]


def rank_scores(
    scores: Sequence[CandidateScore],
    objective: str = "edp",
    top_k: int | None = None,
) -> list[CandidateScore]:
    """Scores sorted ascending by ``objective`` (ties by key), deduplicated."""
    unique: dict[str, CandidateScore] = {}
    for score in scores:
        unique.setdefault(score.key, score)
    ranked = sorted(unique.values(), key=lambda s: (s.objective(objective), s.key))
    return ranked if top_k is None else ranked[:top_k]
