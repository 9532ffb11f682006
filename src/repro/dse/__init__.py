"""``repro.dse`` — design-space exploration over the energy macro-model.

The paper's whole point (Sec. I) is that a once-characterized macro-model
makes per-candidate energy evaluation cheap enough to *search* the
custom-instruction design space instead of hand-evaluating a few points.
This package is that search engine:

* :mod:`repro.dse.space` — declarative candidate spaces (knobs x builder)
  with deterministic enumeration and a registry of bundled spaces;
* :mod:`repro.dse.evaluate` — the scoring engine: macro-model fast path,
  batched simulation per semantic partition and per-candidate failure
  isolation;
* :mod:`repro.dse.strategies` — exhaustive / seeded-random / greedy
  hill-climb search behind one ``Strategy`` interface;
* :mod:`repro.dse.pareto` — Pareto-frontier extraction and deterministic
  ranking;
* :mod:`repro.dse.report` — the one-call :func:`explore` API, report
  rendering (table/JSON/CSV) and the reference-RTL :func:`cross_check`.

Typical use::

    from repro.dse import ExhaustiveStrategy, explore, get_space

    report = explore(model, get_space("reed_solomon"), ExhaustiveStrategy())
    print(report.table())
    best = report.best
"""

from .evaluate import OBJECTIVES, CandidateScore, EvaluationEngine
from .pareto import PARETO_AXES, dominates, pareto_frontier, rank_scores
from .report import CrossCheckResult, ExplorationReport, cross_check, explore
from .space import (
    BUILTIN_SPACES,
    OPERATING_POINT_KNOB,
    Assignment,
    Candidate,
    Knob,
    SearchSpace,
    SpaceError,
    assignment_key,
    available_spaces,
    get_space,
    register_space,
    with_operating_points,
)
from .strategies import (
    ExhaustiveStrategy,
    GreedyStrategy,
    RandomStrategy,
    Strategy,
    make_strategy,
)

__all__ = [
    "Assignment",
    "BUILTIN_SPACES",
    "Candidate",
    "CandidateScore",
    "CrossCheckResult",
    "EvaluationEngine",
    "ExhaustiveStrategy",
    "ExplorationReport",
    "GreedyStrategy",
    "Knob",
    "OBJECTIVES",
    "OPERATING_POINT_KNOB",
    "PARETO_AXES",
    "RandomStrategy",
    "SearchSpace",
    "SpaceError",
    "Strategy",
    "assignment_key",
    "available_spaces",
    "cross_check",
    "dominates",
    "explore",
    "get_space",
    "make_strategy",
    "pareto_frontier",
    "rank_scores",
    "register_space",
    "with_operating_points",
]
