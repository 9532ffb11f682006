"""Fault-tolerant characterization runtime (robustness extension).

In-situ characterization (paper Fig. 2, steps 1-8) is the expensive half
of the flow: every sample costs a fully-traced ISS run plus a reference
RTL estimation.  The plain :class:`~repro.core.characterize.Characterizer`
is all-or-nothing — one :class:`~repro.xtcore.SimulationError`, assembly
failure or non-finite energy aborts the suite and discards every prior
sample.  At production scale (large suites, many processor variants,
partially-failing batch sweeps) that is unacceptable, so this module
wraps the sim→RTL→extract pipeline per sample with:

* **error isolation** — each failure is captured as a structured
  :class:`SampleFailure` record instead of propagating;
* **a retry policy** (:class:`RetryPolicy`) — transient failures are
  retried with a lowered instruction budget and an optional cheap
  trace-off probe before the traced re-run;
* **checkpointing** — completed samples (plus failure records) are
  periodically written to the ``save_samples`` JSON format with atomic
  tmp + ``os.replace`` writes, and a later run can resume from the
  checkpoint, skipping completed samples;
* **degradation rules** — the run proceeds on the surviving samples when
  coverage still spans the template (audited by
  :mod:`repro.core.coverage`); in strict mode a coverage-destroying
  failure pattern raises :class:`CoverageLossError` naming the variables
  that lost coverage, and more failures than ``max_failures`` raises
  :class:`TooManyFailures`.

The simulation and energy-estimation stages are injectable, which is how
:mod:`repro.testing.faults` deterministically injects simulator
exceptions, NaN/Inf energies and budget exhaustion to prove containment.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..asm import Program
from ..obs.session import DEFAULT_MAX_INSTRUCTIONS, SessionFn, run_session
from ..xtcore import ProcessorConfig, SimulationResult
from .characterize import (
    CharacterizationResult,
    CharacterizationSample,
    Characterizer,
    atomic_write_json,
)
from .coverage import CoverageReport, audit_coverage
from .extract import extract_variables

#: ``estimate_energy(config, sim_result) -> float`` seam.
EstimateFn = Callable[[ProcessorConfig, SimulationResult], float]


class CharacterizationRunError(RuntimeError):
    """A fault-tolerant characterization run could not produce a model."""


class TooManyFailures(CharacterizationRunError):
    """More samples failed than the configured ``max_failures`` budget."""

    def __init__(self, message: str, failures: list["SampleFailure"]) -> None:
        super().__init__(message)
        self.failures = failures


class CoverageLossError(CharacterizationRunError):
    """Failures left the surviving suite unable to span the template."""

    def __init__(
        self,
        message: str,
        coverage: CoverageReport,
        lost_variables: list[str],
    ) -> None:
        super().__init__(message)
        self.coverage = coverage
        self.lost_variables = lost_variables


class CheckpointError(ValueError):
    """A checkpoint file could not be read back."""


def default_estimate(characterizer: Characterizer) -> EstimateFn:
    """The production RTL-reference energy stage, sharing the
    characterizer's per-config netlist/estimator cache."""

    def estimate(config: ProcessorConfig, result: SimulationResult) -> float:
        return characterizer._estimator_for(config).estimate(result).total

    return estimate


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a failed sample is retried before being recorded as a failure.

    ``max_attempts`` bounds total attempts per sample (1 = no retries).
    On each retry the instruction budget is multiplied by
    ``budget_factor`` so a deterministically hanging program (budget
    exhaustion) fails fast instead of paying the full budget again, while
    a transient failure gets a real second chance — characterization
    programs finish far below their budget.  With ``probe_without_trace``
    a retry first re-runs the simulator trace-off (cheap) to confirm the
    program terminates before paying for the traced run.
    """

    max_attempts: int = 2
    budget_factor: float = 0.5
    probe_without_trace: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 < self.budget_factor <= 1.0:
            raise ValueError(
                f"budget_factor must be in (0, 1], got {self.budget_factor}"
            )

    def budget_for(self, attempt: int, base_budget: int) -> int:
        """Instruction budget for 1-indexed ``attempt``."""
        return max(1, int(base_budget * self.budget_factor ** (attempt - 1)))


@dataclasses.dataclass
class SampleFailure:
    """One contained per-sample failure (instead of an aborted run)."""

    name: str
    processor_name: str
    #: pipeline stage that failed: build | simulate | estimate | extract | validate
    stage: str
    error_type: str
    message: str
    attempts: int

    @classmethod
    def from_exception(
        cls,
        name: str,
        processor_name: str,
        stage: str,
        exc: BaseException,
        attempts: int = 1,
    ) -> "SampleFailure":
        """Capture an exception as a structured failure record.

        The one spelling shared by the characterization runner, the DSE
        engine's worker payloads and the estimation service, so failure
        records look identical no matter which layer contained the error.
        """
        return cls(
            name=name,
            processor_name=processor_name,
            stage=stage,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
        )

    def describe(self) -> str:
        return (
            f"{self.name} ({self.processor_name or '?'}) failed at {self.stage} "
            f"after {self.attempts} attempt(s): {self.error_type}: {self.message}"
        )

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "SampleFailure":
        return cls(
            name=payload["name"],
            processor_name=payload.get("processor_name", ""),
            stage=payload.get("stage", "?"),
            error_type=payload.get("error_type", "?"),
            message=payload.get("message", ""),
            attempts=int(payload.get("attempts", 1)),
        )


@dataclasses.dataclass
class RunnerTask:
    """One unit of characterization work with a deferred (fallible) build."""

    name: str
    builder: Callable[[], tuple[ProcessorConfig, Program]]
    max_instructions: int = 2_000_000

    @classmethod
    def from_case(cls, case) -> "RunnerTask":
        """Adapt a :class:`repro.programs.BenchmarkCase`-like object."""
        return cls(
            name=case.name,
            builder=case.build,
            max_instructions=case.max_instructions,
        )

    @classmethod
    def from_pair(
        cls,
        config: ProcessorConfig,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> "RunnerTask":
        return cls(
            name=program.name,
            builder=lambda: (config, program),
            max_instructions=max_instructions,
        )


TaskLike = Union[RunnerTask, tuple]


def as_task(item: TaskLike) -> RunnerTask:
    """Coerce a RunnerTask, (config, program) pair, or BenchmarkCase."""
    if isinstance(item, RunnerTask):
        return item
    if isinstance(item, tuple):
        return RunnerTask.from_pair(*item)
    if hasattr(item, "build") and hasattr(item, "name"):
        return RunnerTask.from_case(item)
    raise TypeError(f"cannot interpret {item!r} as a characterization task")


@dataclasses.dataclass
class RunReport:
    """Everything a caller needs to audit a fault-tolerant run."""

    samples: list[CharacterizationSample]
    failures: list[SampleFailure]
    #: task names skipped because a resumed checkpoint already had them
    resumed: list[str]
    coverage: Optional[CoverageReport]
    result: Optional[CharacterizationResult]
    checkpoint_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Structured human-readable failure/coverage summary."""
        lines = [
            f"characterization run: {len(self.samples)} sample(s) ok "
            f"({len(self.resumed)} resumed from checkpoint), "
            f"{len(self.failures)} failure(s)"
        ]
        if self.failures:
            lines.append(f"{'test program':<24}{'stage':<10}{'attempts':>9}  error")
            lines.append("-" * 72)
            for failure in self.failures:
                message = f"{failure.error_type}: {failure.message}"
                if len(message) > 60:
                    message = message[:57] + "..."
                lines.append(
                    f"{failure.name:<24}{failure.stage:<10}"
                    f"{failure.attempts:>9}  {message}"
                )
        if self.coverage is not None and not self.coverage.is_adequate:
            lines.append(
                f"coverage: rank {self.coverage.rank}/{self.coverage.n_variables}"
                + (
                    f", unexercised: {self.coverage.unexercised}"
                    if self.coverage.unexercised
                    else ""
                )
            )
        return "\n".join(lines)


class CharacterizationRunner:
    """Run a characterization suite with per-sample fault isolation.

    Parameters
    ----------
    characterizer:
        Receives the surviving samples; a fresh default-template
        :class:`Characterizer` when omitted.
    retry:
        :class:`RetryPolicy`; default retries once with a halved budget.
    checkpoint_path / checkpoint_every:
        When a path is given, the sample set (plus failure records) is
        atomically rewritten after every ``checkpoint_every`` completed
        tasks and once at the end of the run.
    max_failures:
        Abort (raising :class:`TooManyFailures`) once more than this many
        samples have failed this run.  ``None`` = unlimited.
    degradation:
        ``"warn"`` (default) never fails a run over coverage; ``"strict"``
        raises :class:`CoverageLossError` when failures occurred *and* the
        surviving samples no longer span the template.
    simulate / estimate_energy:
        Injectable pipeline stages (used by the fault-injection harness).
        ``simulate`` is invoked with keyword arguments per the
        :data:`~repro.obs.session.SessionFn` contract — wrap it with
        :meth:`repro.testing.faults.FaultPlan.wrap_session`.
    """

    def __init__(
        self,
        characterizer: Optional[Characterizer] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 5,
        max_failures: Optional[int] = None,
        degradation: str = "warn",
        progress: Optional[Callable[[str], None]] = None,
        simulate: Optional[SessionFn] = None,
        estimate_energy: Optional[EstimateFn] = None,
    ) -> None:
        if degradation not in ("warn", "strict"):
            raise ValueError(
                f"unknown degradation mode {degradation!r} (use 'warn' or 'strict')"
            )
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.characterizer = characterizer if characterizer is not None else Characterizer()
        self.retry = retry if retry is not None else RetryPolicy()
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.max_failures = max_failures
        self.degradation = degradation
        self.progress = progress
        self.failures: list[SampleFailure] = []
        self._simulate: SessionFn = simulate if simulate is not None else run_session
        self._estimate = (
            estimate_energy
            if estimate_energy is not None
            else default_estimate(self.characterizer)
        )

    # -- checkpointing -----------------------------------------------------

    def resume(self) -> list[str]:
        """Load the checkpoint file (if configured and present).

        Returns the names of the samples restored; tasks with those names
        are skipped by :meth:`run`.  Previously recorded *failures* are
        not restored — a resumed run re-attempts them (they may have been
        transient).  Raises :class:`CheckpointError` (with the underlying
        cause and a recovery hint) when the file exists but is unreadable.
        """
        if self.checkpoint_path is None or not os.path.exists(self.checkpoint_path):
            return []
        before = len(self.characterizer.samples)
        try:
            self.characterizer.load_samples(self.checkpoint_path)
        except ValueError as exc:
            raise CheckpointError(
                f"cannot resume from checkpoint {self.checkpoint_path!r}: {exc}"
            ) from exc
        restored = [s.name for s in self.characterizer.samples[before:]]
        self._emit(f"resumed {len(restored)} sample(s) from {self.checkpoint_path}")
        return restored

    def _write_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        payload = self.characterizer.samples_payload()
        payload["failures"] = [f.to_payload() for f in self.failures]
        atomic_write_json(self.checkpoint_path, payload)

    # -- the run loop ------------------------------------------------------

    def run(
        self,
        tasks: Sequence[TaskLike],
        fit: bool = True,
        with_loocv: bool = False,
    ) -> RunReport:
        """Run every task, isolating failures; checkpoint; audit; fit."""
        tasks = [as_task(t) for t in tasks]
        completed = {s.name for s in self.characterizer.samples}
        resumed = [t.name for t in tasks if t.name in completed]
        pending = [t for t in tasks if t.name not in completed]
        since_checkpoint = 0
        try:
            for task in pending:
                outcome = self._run_task(task)
                if isinstance(outcome, SampleFailure):
                    self.failures.append(outcome)
                    self._emit(f"FAILED {outcome.describe()}")
                    if (
                        self.max_failures is not None
                        and len(self.failures) > self.max_failures
                    ):
                        raise TooManyFailures(
                            f"aborting: {len(self.failures)} sample failure(s) "
                            f"exceed max_failures={self.max_failures}\n"
                            + "\n".join(f.describe() for f in self.failures),
                            failures=list(self.failures),
                        )
                else:
                    self.characterizer.add_sample(outcome)
                    self._emit(f"characterized {outcome.name} on {outcome.processor_name}")
                since_checkpoint += 1
                if since_checkpoint >= self.checkpoint_every:
                    self._write_checkpoint()
                    since_checkpoint = 0
        finally:
            # Persist whatever completed, even when aborting mid-run.
            if since_checkpoint or self.failures:
                self._write_checkpoint()

        samples = list(self.characterizer.samples)
        coverage = (
            audit_coverage(samples, self.characterizer.template) if samples else None
        )
        if self.degradation == "strict" and self.failures:
            if coverage is None:
                raise CharacterizationRunError(
                    "no samples survived characterization; "
                    f"{len(self.failures)} failure(s):\n"
                    + "\n".join(f.describe() for f in self.failures)
                )
            if not coverage.is_adequate:
                lost = list(coverage.unexercised)
                raise CoverageLossError(
                    "failures degraded suite coverage below the template: "
                    f"rank {coverage.rank}/{coverage.n_variables}"
                    + (f", unexercised variables {lost}" if lost else "")
                    + f" after {len(self.failures)} failure(s)",
                    coverage=coverage,
                    lost_variables=lost,
                )
        result = None
        if fit:
            if not samples:
                raise CharacterizationRunError(
                    "no samples survived characterization; "
                    f"{len(self.failures)} failure(s):\n"
                    + "\n".join(f.describe() for f in self.failures)
                )
            result = self.characterizer.fit(with_loocv=with_loocv)
        return RunReport(
            samples=samples,
            failures=list(self.failures),
            resumed=resumed,
            coverage=coverage,
            result=result,
            checkpoint_path=self.checkpoint_path,
        )

    def _run_task(self, task: RunnerTask) -> CharacterizationSample | SampleFailure:
        """One task through build→(simulate→estimate→extract→validate)×retry."""
        try:
            config, program = task.builder()
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            return SampleFailure.from_exception(task.name, "", "build", exc)
        stage = "simulate"
        last_exc: Optional[Exception] = None
        attempt = 0
        while attempt < self.retry.max_attempts:
            attempt += 1
            budget = self.retry.budget_for(attempt, task.max_instructions)
            try:
                stage = "simulate"
                if attempt > 1 and self.retry.probe_without_trace:
                    # cheap termination probe before paying for the trace
                    self._simulate(
                        config, program, collect_trace=False, max_instructions=budget
                    )
                sim = self._simulate(
                    config, program, collect_trace=True, max_instructions=budget
                )
                stage = "estimate"
                energy = float(self._estimate(config, sim))
                stage = "extract"
                variables = extract_variables(
                    sim.stats, config, self.characterizer.template
                )
                stage = "validate"
                if not np.isfinite(energy):
                    raise ValueError(f"non-finite energy {energy!r}")
                if not np.all(np.isfinite(variables)):
                    raise ValueError("non-finite template variables")
                return CharacterizationSample(
                    name=task.name,
                    processor_name=config.name,
                    variables=variables,
                    energy=energy,
                    stats=sim.stats,
                )
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                last_exc = exc
        assert last_exc is not None
        return SampleFailure.from_exception(
            task.name, config.name, stage, last_exc, attempts=attempt
        )

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
