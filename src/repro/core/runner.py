"""Fault-tolerant characterization runtime (robustness extension).

The plain :class:`~repro.core.characterize.Characterizer` loop is
all-or-nothing: one :class:`~repro.xtcore.SimulationError`, assembly
failure or non-finite energy aborts the suite and discards every prior
sample.  :class:`CharacterizationRunner` drives the same per-sample step,
:meth:`Characterizer.measure <repro.core.characterize.Characterizer.measure>`
(one simulation streamed through the reference RTL observer, then
template extraction), with:

* **error isolation** — each failure is captured as a structured
  :class:`SampleFailure` record (stage ``build``, ``simulate`` or
  ``validate``) instead of propagating;
* **a retry policy** (:class:`RetryPolicy`) — failed samples are retried
  with a lowered instruction budget, each retry first probing the
  program without the RTL observer before paying for the observed run;
* **degradation rules** — the run proceeds on the surviving samples when
  coverage still spans the template (audited by
  :mod:`repro.core.coverage`); in strict mode a coverage-destroying
  failure pattern raises :class:`CoverageLossError` naming the variables
  that lost coverage, and more failures than ``max_failures`` raises
  :class:`TooManyFailures`.

The session and energy stages are injectable, which is how
:mod:`repro.testing.faults` deterministically injects simulator
exceptions, NaN/Inf energies and budget exhaustion to prove containment.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from ..asm import Program
from ..obs.session import DEFAULT_MAX_INSTRUCTIONS, SessionFn, run_session
from ..xtcore import ProcessorConfig
from .characterize import (
    CharacterizationResult,
    CharacterizationSample,
    Characterizer,
    EnergyFn,
    report_energy,
)
from .coverage import CoverageReport, audit_coverage


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


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a failed sample is retried before being recorded as a failure.

    ``max_attempts`` bounds total attempts per sample (1 = no retries).
    On each retry the instruction budget is multiplied by
    ``budget_factor`` so a deterministically hanging program (budget
    exhaustion) fails fast instead of paying the full budget again, while
    a transient failure gets a real second chance — characterization
    programs finish far below their budget.
    """

    max_attempts: int = 2
    budget_factor: float = 0.5

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
    #: pipeline stage that failed (the runner records build | simulate |
    #: validate; other layers record their own stages)
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


@dataclasses.dataclass
class RunReport:
    """Everything a caller needs to audit a fault-tolerant run."""

    samples: list[CharacterizationSample]
    failures: list[SampleFailure]
    coverage: Optional[CoverageReport]
    result: Optional[CharacterizationResult]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Structured human-readable failure/coverage summary."""
        lines = [
            f"characterization run: {len(self.samples)} sample(s) ok, "
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
        Measures every sample and receives the survivors; a fresh
        default-template :class:`Characterizer` when omitted.
    retry:
        :class:`RetryPolicy`; default retries once with a halved budget.
    max_failures:
        Abort (raising :class:`TooManyFailures`) once more than this many
        samples have failed this run.  ``None`` = unlimited.
    degradation:
        ``"warn"`` (default) never fails a run over coverage; ``"strict"``
        raises :class:`CoverageLossError` when failures occurred *and* the
        surviving samples no longer span the template.
    simulate / estimate_energy:
        Injectable pipeline stages (used by the fault-injection harness),
        handed to :meth:`Characterizer.measure` as its ``session`` and
        ``energy`` stages.  ``simulate`` is invoked with keyword arguments
        per the :data:`~repro.obs.session.SessionFn` contract — wrap it
        with :meth:`repro.testing.faults.FaultPlan.wrap_session`;
        ``estimate_energy`` reads the energy off the streamed
        :class:`~repro.rtl.EnergyReport` — wrap it with
        :meth:`~repro.testing.faults.FaultPlan.wrap_estimate`.
    """

    def __init__(
        self,
        characterizer: Optional[Characterizer] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        max_failures: Optional[int] = None,
        degradation: str = "warn",
        progress: Optional[Callable[[str], None]] = None,
        simulate: Optional[SessionFn] = None,
        estimate_energy: Optional[EnergyFn] = None,
    ) -> None:
        if degradation not in ("warn", "strict"):
            raise ValueError(
                f"unknown degradation mode {degradation!r} (use 'warn' or 'strict')"
            )
        if max_failures is not None and max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {max_failures}")
        self.characterizer = characterizer if characterizer is not None else Characterizer()
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_failures = max_failures
        self.degradation = degradation
        self.progress = progress
        self.failures: list[SampleFailure] = []
        self._simulate: SessionFn = simulate if simulate is not None else run_session
        self._energy: EnergyFn = (
            estimate_energy if estimate_energy is not None else report_energy
        )

    def run(
        self,
        tasks: Sequence[RunnerTask],
        fit: bool = True,
        with_loocv: bool = False,
    ) -> RunReport:
        """Run every task, isolating failures; audit; fit."""
        for task in tasks:
            outcome = self._run_task(task)
            if isinstance(outcome, SampleFailure):
                self.failures.append(outcome)
                self._emit(f"FAILED {outcome.describe()}")
                if self.max_failures is not None and len(self.failures) > self.max_failures:
                    raise TooManyFailures(
                        f"aborting: {len(self.failures)} sample failure(s) "
                        f"exceed max_failures={self.max_failures}\n"
                        + "\n".join(f.describe() for f in self.failures),
                        failures=list(self.failures),
                    )
            else:
                self._emit(f"characterized {outcome.name} on {outcome.processor_name}")

        samples = list(self.characterizer.samples)
        coverage = (
            audit_coverage(samples, self.characterizer.template) if samples else None
        )
        if self.degradation == "strict" and self.failures:
            if coverage is None:
                raise self._no_survivors()
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
                raise self._no_survivors()
            result = self.characterizer.fit(with_loocv=with_loocv)
        return RunReport(
            samples=samples,
            failures=list(self.failures),
            coverage=coverage,
            result=result,
        )

    def _run_task(self, task: RunnerTask) -> CharacterizationSample | SampleFailure:
        """One task through build→(measure→validate)×retry.

        A sample that passes validation is added to the characterizer.
        """
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
                if attempt > 1:
                    # cheap termination probe before paying for the RTL observer
                    self._simulate(config, program, max_instructions=budget)
                sample = self.characterizer.measure(
                    config,
                    program,
                    budget,
                    session=self._simulate,
                    energy=self._energy,
                )
                stage = "validate"
                self.characterizer.add_sample(sample)
                return sample
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                last_exc = exc
        assert last_exc is not None
        return SampleFailure.from_exception(
            task.name, config.name, stage, last_exc, attempts=attempt
        )

    def _no_survivors(self) -> CharacterizationRunError:
        return CharacterizationRunError(
            "no samples survived characterization; "
            f"{len(self.failures)} failure(s):\n"
            + "\n".join(f.describe() for f in self.failures)
        )

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
