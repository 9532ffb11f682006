"""Exploration orchestration and reporting.

:func:`explore` is the one-call API the CLI, the examples and the
benchmarks share: build an engine, run a strategy, package scores,
failures, the Pareto frontier and throughput counters into an
:class:`ExplorationReport` that renders as a text table, JSON or CSV.

:func:`cross_check` is the paper's relative-accuracy safety net (Fig. 4):
re-estimate the top-k macro-model ranking with the slow reference RTL
estimator and report the Spearman rank correlation between the two.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from typing import Callable, Optional, Sequence

from ..analysis.metrics import spearman_rho
from ..core.model import EnergyMacroModel
from ..core.runner import SampleFailure
from ..rtl import reference_energy
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS
from .evaluate import CandidateScore, EvaluationEngine
from .pareto import PARETO_AXES, pareto_frontier, rank_scores
from .space import OPERATING_POINT_KNOB, SearchSpace
from .strategies import Strategy


@dataclasses.dataclass
class ExplorationReport:
    """Everything one exploration run produced."""

    space_name: str
    space_size: int
    strategy: str
    objective: str
    scores: list[CandidateScore]
    failures: list[SampleFailure]
    pareto: list[CandidateScore]
    elapsed_seconds: float
    evaluated: int  # candidates actually simulated (memo hits excluded)
    #: content digest of the model the run scored against (self-describing
    #: artifacts: re-running with a different model is visibly different)
    model_digest: str = ""
    #: the model's own operating-point key, or None at the calibration
    #: reference; per-candidate points live on the scores themselves
    operating_point: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def candidates_per_second(self) -> float:
        """Throughput over *scored* candidates (memo hits included)."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return len(self.scores) / self.elapsed_seconds

    def ranked(self, top_k: Optional[int] = None) -> list[CandidateScore]:
        return rank_scores(self.scores, self.objective, top_k)

    @property
    def best(self) -> Optional[CandidateScore]:
        ranked = self.ranked(top_k=1)
        return ranked[0] if ranked else None

    # -- rendering ---------------------------------------------------------

    def table(self, top_k: Optional[int] = None) -> str:
        """The ranked scores plus frontier/throughput/failure summary."""
        lines = [
            f"space {self.space_name}: scored {len(self.scores)}/{self.space_size} "
            f"design points via {self.strategy} "
            f"({self.elapsed_seconds:.2f}s, {self.candidates_per_second:.1f} cand/s)"
        ]
        if self.model_digest or self.operating_point:
            lines.append(
                f"model {self.model_digest[:12] or '?'} at "
                f"{self.operating_point or 'calibration reference'}"
            )
        ranked = self.ranked(top_k)
        # Real-time columns only render when every ranked row has a clock
        # (an operating-point axis or a point-bound model).
        with_time = bool(ranked) and all(
            score.frequency_mhz is not None for score in ranked
        )
        header = (
            f"{'#':>3} {'design point':<34}{'program':<14}"
            f"{'energy':>12}{'cycles':>9}{'EDP':>13}{'area':>9}"
        )
        if with_time:
            header += f"{'time_us':>10}{'EDP_s':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for i, score in enumerate(ranked, start=1):
            marker = "*" if score in self.pareto else " "
            row = (
                f"{i:>3} {score.key:<33}{marker}{score.program_name:<14}"
                f"{score.energy:>12.0f}{score.cycles:>9}{score.edp:>13.4g}"
                f"{score.area:>9.2f}"
            )
            if with_time:
                row += f"{score.seconds * 1e6:>10.2f}{score.edp_seconds:>12.4g}"
            lines.append(row)
        lines.append(
            f"pareto frontier (*): {len(self.pareto)} point(s) over "
            f"{'/'.join(PARETO_AXES)}"
        )
        if self.failures:
            lines.append(f"{len(self.failures)} candidate failure(s):")
            for failure in self.failures:
                lines.append(f"  {failure.describe()}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {
            "format": "repro-dse-report/1",
            "space": self.space_name,
            "space_size": self.space_size,
            "strategy": self.strategy,
            "objective": self.objective,
            "model_digest": self.model_digest,
            "operating_point": self.operating_point,
            "elapsed_seconds": self.elapsed_seconds,
            "evaluated": self.evaluated,
            "scores": [score.to_payload() for score in self.ranked()],
            "pareto": [score.key for score in self.pareto],
            "failures": [failure.to_payload() for failure in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Ranked scores as CSV (one row per design point)."""
        knob_names = sorted(
            {name for score in self.scores for name in score.assignment}
        )
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["rank", "key", "program", "processor"]
            + knob_names
            + [
                "energy",
                "cycles",
                "edp",
                "area",
                "operating_point",
                "frequency_mhz",
                "seconds",
                "edp_seconds",
                "pareto",
            ]
        )
        pareto_keys = {score.key for score in self.pareto}
        for rank, score in enumerate(self.ranked(), start=1):
            seconds = score.seconds
            writer.writerow(
                [rank, score.key, score.program_name, score.processor_name]
                + [score.assignment.get(name, "") for name in knob_names]
                + [
                    f"{score.energy:.6g}",
                    score.cycles,
                    f"{score.edp:.6g}",
                    f"{score.area:.4f}",
                    score.operating_point or "",
                    f"{score.frequency_mhz:g}" if score.frequency_mhz else "",
                    f"{seconds:.6g}" if seconds is not None else "",
                    f"{score.edp_seconds:.6g}" if seconds is not None else "",
                    int(score.key in pareto_keys),
                ]
            )
        return buffer.getvalue()


def explore(
    model: EnergyMacroModel,
    space: SearchSpace,
    strategy: Strategy,
    jobs: int = 1,  # perfbench's explore_one still passes jobs=1
    objective: str = "edp",
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    max_failures: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ExplorationReport:
    """Run one exploration end to end and package the report."""
    if jobs != 1:
        raise ValueError(f"explore scores serially; jobs must be 1, got {jobs}")
    if objective in ("time", "edp_seconds"):
        # fail before any simulation: real-time objectives need a clock,
        # from the model's operating point or an operating_point knob
        has_op_knob = any(
            knob.name == OPERATING_POINT_KNOB for knob in space.knobs
        )
        if model.operating_point is None and not has_op_knob:
            raise ValueError(
                f"objective {objective!r} needs an operating point (a clock "
                "frequency): rescale the model with model.at(...) or add an "
                "operating_point knob via with_operating_points(...)"
            )
    engine = EvaluationEngine(
        model,
        space,
        max_instructions=max_instructions,
        max_failures=max_failures,
        progress=progress,
    )
    started = time.perf_counter()
    scores = strategy.explore(space, engine.evaluate)
    elapsed = time.perf_counter() - started
    return ExplorationReport(
        space_name=space.name,
        space_size=space.size,
        strategy=strategy.describe(),
        objective=objective,
        scores=scores,
        failures=list(engine.failures),
        pareto=pareto_frontier(scores),
        elapsed_seconds=elapsed,
        evaluated=engine.evaluated,
        model_digest=model.digest(),
        operating_point=(
            model.operating_point.key if model.operating_point is not None else None
        ),
    )


@dataclasses.dataclass
class CrossCheckResult:
    """Macro-model vs reference-RTL agreement on the top-k ranking."""

    rows: list[tuple[str, float, float]]  # (key, macro energy, reference energy)
    rho: float

    def table(self) -> str:
        header = f"{'design point':<34}{'macro':>12}{'reference':>12}"
        lines = [header, "-" * len(header)]
        for key, macro, reference in self.rows:
            lines.append(f"{key:<34}{macro:>12.0f}{reference:>12.0f}")
        lines.append(f"Spearman rank correlation macro vs reference: {self.rho:.3f}")
        return "\n".join(lines)


def cross_check(
    space: SearchSpace,
    scores: Sequence[CandidateScore],
    top_k: Optional[int] = None,
    objective: str = "edp",
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    operating_point: Optional[str] = None,
) -> CrossCheckResult:
    """Re-estimate the top-k with the slow reference path; Spearman rho.

    This is the paper's relative-accuracy argument applied as a safety
    net: the macro-model picks the candidates, the reference confirms the
    ranking order before anyone commits silicon.
    """
    chosen = rank_scores(scores, objective, top_k)
    if len(chosen) < 2:
        raise ValueError("cross-check needs at least two scored design points")
    rows = []
    for score in chosen:
        config, program = space.candidate(score.assignment).build()
        # Compare at the point each score was estimated at: the reference
        # estimator applies the identical calibration factor, so the
        # macro-vs-reference ratio is point-independent by construction.
        report, _ = reference_energy(
            config,
            program,
            max_instructions=max_instructions,
            operating_point=score.operating_point or operating_point,
        )
        rows.append((score.key, score.energy, report.total))
    rho = spearman_rho([row[1] for row in rows], [row[2] for row in rows])
    return CrossCheckResult(rows=rows, rho=rho)
