"""Candidate scoring: the macro-model fast path, batched.

A candidate is scored on the paper's macro-model path (untraced
instruction-set simulation, then a dot product; no RTL) plus a netlist
generation for the custom-area proxy.  Candidates rarely pay a
simulation each:

* **shared builds** — the design point's extensions and program come
  from the compilation cache's ``build`` tier, built once per distinct
  ``(workload, impl)`` (see :mod:`repro.dse.space`);
* **batched execution** — every pending candidate goes to the
  estimation kernel
  (:meth:`~repro.core.model.EnergyMacroModel.estimate_many`) in one
  call, which runs candidates sharing one program and one semantic
  partition through a single :func:`repro.xtcore.run_batch` pass;
* a per-run **memo** — strategies that revisit design points (greedy
  walks) pay for each point once.

Nothing is stored across runs: a rerun re-scores every point, which costs
less than filling an on-disk result store did (docs/PERFORMANCE.md).

Failures are isolated per candidate into the same
:class:`~repro.core.runner.SampleFailure` records the characterization
runner uses, with the same ``max_failures`` →
:class:`~repro.core.runner.TooManyFailures` degradation rule.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from ..core.model import EnergyMacroModel, MacroEstimate
from ..core.runner import SampleFailure, TooManyFailures
from ..rtl import generate_netlist
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig
from .space import OPERATING_POINT_KNOB, Candidate, SearchSpace, assignment_key


@dataclasses.dataclass
class CandidateScore:
    """One scored design point (all objectives are minimized).

    ``operating_point`` / ``frequency_mhz`` are set when the design point
    carries an operating-point knob (or the model itself is bound to a
    point); they unlock the real-time objectives ``time`` (seconds) and
    ``edp_seconds`` on top of the cycle-based ones.
    """

    key: str  # canonical assignment key within the space
    assignment: dict
    program_name: str
    processor_name: str
    energy: float
    cycles: int
    area: float
    operating_point: Optional[str] = None
    frequency_mhz: Optional[float] = None

    @property
    def edp(self) -> float:
        """Energy-delay product, the default exploration objective."""
        return self.energy * self.cycles

    @property
    def seconds(self) -> Optional[float]:
        """Wall-clock runtime; needs an operating point to pin the clock."""
        if self.frequency_mhz is None:
            return None
        return self.cycles / (self.frequency_mhz * 1e6)

    @property
    def edp_seconds(self) -> Optional[float]:
        """Energy-delay product with delay in real seconds."""
        seconds = self.seconds
        if seconds is None:
            return None
        return self.energy * seconds

    def objective(self, name: str) -> float:
        """Look up one scalar objective by name."""
        if name == "edp":
            return self.edp
        if name in ("energy", "cycles", "area"):
            return float(getattr(self, name))
        if name in ("time", "edp_seconds"):
            value = self.seconds if name == "time" else self.edp_seconds
            if value is None:
                raise ValueError(
                    f"objective {name!r} needs an operating point (a clock "
                    "frequency) — explore an operating-point space or pass "
                    "--operating-point"
                )
            return float(value)
        raise ValueError(
            f"unknown objective {name!r} "
            f"(use {', '.join(OBJECTIVES[:-1])} or {OBJECTIVES[-1]})"
        )

    def to_payload(self) -> dict:
        payload = {
            "key": self.key,
            "assignment": dict(self.assignment),
            "program": self.program_name,
            "processor": self.processor_name,
            "energy": float(self.energy),
            "cycles": int(self.cycles),
            "edp": float(self.edp),
            "area": float(self.area),
            "operating_point": self.operating_point,
            "frequency_mhz": self.frequency_mhz,
        }
        if self.frequency_mhz is not None:
            payload["seconds"] = self.seconds
            payload["edp_seconds"] = self.edp_seconds
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "CandidateScore":
        frequency = payload.get("frequency_mhz")
        return cls(
            key=payload["key"],
            assignment=dict(payload["assignment"]),
            program_name=payload["program"],
            processor_name=payload["processor"],
            energy=float(payload["energy"]),
            cycles=int(payload["cycles"]),
            area=float(payload["area"]),
            operating_point=payload.get("operating_point"),
            frequency_mhz=float(frequency) if frequency is not None else None,
        )


OBJECTIVES = ("energy", "cycles", "edp", "area", "time", "edp_seconds")


def score_payload(
    outcome: "MacroEstimate | SampleFailure", config: Optional[ProcessorConfig] = None
) -> dict:
    """The record of one estimation-kernel outcome, shared by DSE and serve.

    An estimate becomes the :class:`CandidateScore` payload shape, with
    the custom-area proxy of ``config`` (the processor it was estimated
    on); a failure keeps its own fields under ``ok: False``.
    """
    if isinstance(outcome, SampleFailure):
        return {"ok": False, **outcome.to_payload()}
    point = outcome.operating_point
    return {
        "ok": True,
        "program": outcome.program_name,
        "processor": outcome.processor_name,
        "energy": float(outcome.energy),
        "cycles": int(outcome.cycles),
        "area": float(generate_netlist(config).custom_area),
        "operating_point": point.key if point is not None else None,
        "frequency_mhz": point.frequency_mhz if point is not None else None,
    }


def _score_points(
    model: EnergyMacroModel,
    space: SearchSpace,
    points: Sequence[dict],
    max_instructions: int,
) -> tuple[list[dict], list[int]]:
    """Build and score design-point assignments in one kernel call.

    An operating-point knob rescales the model, never the hardware, so it
    travels as the job's point.  Never raises: failures become records.
    Also returns the kernel's simulation pass sizes.
    """
    outcomes: list = [None] * len(points)
    configs: list = [None] * len(points)
    jobs = []
    for index, assignment in enumerate(points):
        try:
            config, program = space.build(assignment)
        except Exception as exc:  # noqa: BLE001 — per-candidate isolation is the point
            outcomes[index] = SampleFailure.from_exception(
                assignment_key(assignment), "", "build", exc
            )
            continue
        configs[index] = config
        jobs.append((config, program, assignment.get(OPERATING_POINT_KNOB), max_instructions))
    estimates = model.estimate_many(jobs)
    estimated = iter(estimates)
    outcomes = [next(estimated) if o is None else o for o in outcomes]
    records = [
        {
            **score_payload(outcome, config),
            "key": assignment_key(assignment),
            "assignment": dict(assignment),
        }
        for outcome, config, assignment in zip(outcomes, configs, points)
    ]
    return records, estimates.passes


class EvaluationEngine:
    """Scores candidates of one space against one macro-model."""

    def __init__(
        self,
        model: EnergyMacroModel,
        space: SearchSpace,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        max_failures: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if max_failures is not None and max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {max_failures}")
        self.model = model
        self.space = space
        self.max_instructions = max_instructions
        self.max_failures = max_failures
        self.progress = progress
        self.failures: list[SampleFailure] = []
        self.evaluated = 0  # candidates actually simulated this run
        self.memo_hits = 0
        #: batched-execution accounting: groups of semantically compatible
        #: candidates scored through one run_batch pass, and how many
        #: member candidates those passes covered
        self.batch_groups = 0
        self.batch_members = 0
        self._memo: dict[str, CandidateScore] = {}

    # -- evaluation --------------------------------------------------------

    def evaluate(self, candidates: Sequence[Candidate]) -> list[CandidateScore]:
        """Score a batch; returns successes in input order.

        Failures are recorded on ``self.failures`` (and checked against
        ``max_failures``) instead of aborting the batch.
        """
        slots: list[Optional[CandidateScore]] = [None] * len(candidates)
        pending: list[tuple[int, Candidate]] = []

        for position, candidate in enumerate(candidates):
            memo = self._memo.get(candidate.key)
            if memo is not None:
                self.memo_hits += 1
                slots[position] = memo
                continue
            pending.append((position, candidate))

        for (position, candidate), raw in zip(pending, self._run_pending(pending)):
            if raw["ok"]:
                score = CandidateScore.from_payload({**raw, "key": candidate.key})
                self.evaluated += 1
                slots[position] = score
                self._memo[candidate.key] = score
                self._emit(f"scored {candidate.key}: edp {score.edp:.3g}")
            else:
                self._record_failure(SampleFailure.from_payload({**raw, "name": candidate.key}))
        return [score for score in slots if score is not None]

    # -- internals ---------------------------------------------------------

    def _run_pending(self, pending: list) -> list[dict]:
        """Score the candidates the memo missed in one kernel call.

        The kernel batches candidates that share a trajectory; the
        batched-execution counters tally the passes it reports.
        """
        if not pending:
            return []
        records, passes = _score_points(
            self.model,
            self.space,
            [candidate.assignment_dict for _, candidate in pending],
            self.max_instructions,
        )
        batched = [size for size in passes if size > 1]
        self.batch_groups += len(batched)
        self.batch_members += sum(batched)
        return records

    def _record_failure(self, failure: SampleFailure) -> None:
        self.failures.append(failure)
        self._emit(f"FAILED {failure.describe()}")
        if self.max_failures is not None and len(self.failures) > self.max_failures:
            raise TooManyFailures(
                f"aborting exploration: {len(self.failures)} candidate failure(s) "
                f"exceed max_failures={self.max_failures}\n"
                + "\n".join(f.describe() for f in self.failures),
                failures=list(self.failures),
            )

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
