"""The characterization flow (paper Fig. 2, steps 1-8).

For every test program (on whatever extended-processor configuration it
targets) :meth:`Characterizer.measure`:

1. generates the custom processor's netlist and streams one
   instruction-set simulation (step 6) through the reference RTL energy
   estimator's observer (steps 4-5) — one energy sample, no trace kept;
2. runs the dynamic resource-usage analysis (step 7) and extracts the
   template variables — one design-matrix row;

and :meth:`Characterizer.fit` fits the energy coefficients by regression
(step 8).  :class:`repro.core.runner.CharacterizationRunner` drives the
same ``measure`` step with per-sample fault isolation.

Because regression characterization is *in-situ*, any program works — the
only requirement is diversity: the suite must exercise every template
variable, which :mod:`repro.core.coverage` audits.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Callable, Optional, Sequence

import numpy as np

from ..asm import Program
from ..obs import run_session
from ..obs.session import SessionFn
from ..rtl import EnergyReport, RtlEnergyEstimator, generate_netlist
from ..tech import OperatingPoint, default_calibration
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ExecutionStats, ProcessorConfig
from .extract import extract_variables
from .model import EnergyMacroModel
from .regression import (
    RegressionResult,
    fit_least_squares,
    fit_nnls,
    fit_ridge,
    leave_one_out_errors,
)
from .template import MacroModelTemplate, default_template

#: On-disk format tag for saved sample sets.
SAMPLES_FORMAT = "repro-characterization-samples/1"

#: ``energy(config, program, report) -> float``: reads one sample's
#: energy off the streamed reference report (the fault-injection seam).
EnergyFn = Callable[[ProcessorConfig, Program, EnergyReport], float]


def report_energy(
    config: ProcessorConfig, program: Program, report: EnergyReport
) -> float:
    """The production energy reading: the reference report's total."""
    return report.total


def atomic_write_json(path: str, payload: dict) -> None:
    """Write JSON durably: tmp file in the same directory + ``os.replace``.

    A crash mid-write leaves either the previous file or a stray ``.tmp``,
    never a truncated file masquerading as a valid one.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


@dataclasses.dataclass
class CharacterizationSample:
    """One (program, processor) characterization point."""

    name: str
    processor_name: str
    variables: np.ndarray
    energy: float
    stats: ExecutionStats

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles

    def to_payload(self) -> dict:
        """JSON-serializable form (variables + energy; stats reduced)."""
        return {
            "name": self.name,
            "processor": self.processor_name,
            "variables": [float(v) for v in self.variables],
            "energy": float(self.energy),
            "cycles": int(self.stats.total_cycles) if self.stats else 0,
            "instructions": int(self.stats.total_instructions) if self.stats else 0,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CharacterizationSample":
        stats = ExecutionStats()
        stats.total_cycles = int(payload.get("cycles", 0))
        stats.total_instructions = int(payload.get("instructions", 0))
        return cls(
            name=payload["name"],
            processor_name=payload["processor"],
            variables=np.asarray(payload["variables"], dtype=float),
            energy=float(payload["energy"]),
            stats=stats,
        )


@dataclasses.dataclass
class CharacterizationResult:
    """A fitted macro-model plus everything needed to audit the fit."""

    model: EnergyMacroModel
    samples: list[CharacterizationSample]
    design: np.ndarray
    energies: np.ndarray
    regression: RegressionResult
    loo_percent_errors: Optional[np.ndarray] = None

    @property
    def fitting_errors(self) -> np.ndarray:
        """Per-test-program percentage fitting errors (the paper's Fig. 3)."""
        return self.regression.percent_errors

    def fitting_error_table(self) -> str:
        """Fig. 3 as text: fitting error per characterization program."""
        lines = [f"{'#':>3} {'test program':<28}{'processor':<22}{'fit err %':>10}"]
        lines.append("-" * 65)
        for i, sample in enumerate(self.samples, start=1):
            lines.append(
                f"{i:>3} {sample.name:<28}{sample.processor_name:<22}"
                f"{self.regression.percent_errors[i - 1]:>+10.2f}"
            )
        lines.append("-" * 65)
        lines.append(
            f"    RMS {self.regression.rms_percent_error:.2f}%   "
            f"max |err| {self.regression.max_abs_percent_error:.2f}%   "
            f"R^2 {self.regression.r_squared:.5f}"
        )
        return "\n".join(lines)


class Characterizer:
    """Accumulates characterization samples and fits the macro-model.

    ``operating_point`` binds the whole run — reference estimation,
    collected samples and the fitted model — to one technology operating
    point; ``None`` characterizes at the calibration reference.  Samples
    collected at one point never mix with another (``load_samples``
    enforces the binding), because energy magnitudes differ by the
    technology scale factor and would corrupt the regression.
    """

    def __init__(
        self,
        template: Optional[MacroModelTemplate] = None,
        processor_family: str = "xt1040",
        method: str = "nnls",
        ridge_alpha: float = 1e-6,
        operating_point: "OperatingPoint | str | None" = None,
    ) -> None:
        if method not in ("ols", "nnls", "ridge"):
            raise ValueError(
                f"unknown regression method {method!r} (use 'ols', 'nnls' or 'ridge')"
            )
        self.template = template if template is not None else default_template()
        self.processor_family = processor_family
        self.method = method
        self.ridge_alpha = ridge_alpha
        self.operating_point: Optional[OperatingPoint] = (
            default_calibration().validate(operating_point)
            if operating_point is not None
            else None
        )
        self.samples: list[CharacterizationSample] = []
        # Keyed by content fingerprint: equal configs share one estimator
        # no matter how many distinct (or identically-named) objects the
        # caller builds.
        self._estimators: dict[str, RtlEnergyEstimator] = {}

    def __len__(self) -> int:
        return len(self.samples)

    # -- sample collection ------------------------------------------------

    def _estimator_for(self, config: ProcessorConfig) -> RtlEnergyEstimator:
        key = config.fingerprint()
        estimator = self._estimators.get(key)
        if estimator is None:
            estimator = RtlEnergyEstimator(
                generate_netlist(config), operating_point=self.operating_point
            )
            self._estimators[key] = estimator
        return estimator

    def measure(
        self,
        config: ProcessorConfig,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        *,
        session: Optional[SessionFn] = None,
        energy: EnergyFn = report_energy,
    ) -> CharacterizationSample:
        """Measure one test program without adding it to the sample set.

        The reference energy is accumulated online by the estimator's
        streaming observer — no trace is materialized, so characterizing
        long programs costs O(1) memory.  ``session`` and ``energy`` are
        the injectable stages the fault-injection harness wraps; the
        default session is this module's :func:`~repro.obs.run_session`,
        looked up per call so a wrapper installed on it sees every run.
        """
        observer = self._estimator_for(config).observer()
        result = (session or run_session)(
            config, program, observers=(observer,), max_instructions=max_instructions
        )
        return CharacterizationSample(
            name=program.name,
            processor_name=config.name,
            variables=extract_variables(result.stats, config, self.template),
            energy=energy(config, program, observer.report),
            stats=result.stats,
        )

    def add_program(
        self,
        config: ProcessorConfig,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> CharacterizationSample:
        """Run one test program through the full characterization pipeline."""
        sample = self.measure(config, program, max_instructions)
        self.add_sample(sample)
        return sample

    def save_samples(self, path: str) -> None:
        """Persist collected samples as JSON.

        The expensive half of characterization is the per-program
        simulation + reference RTL estimation; saved samples let a later
        session re-fit (e.g. with a different regression method) without
        touching the simulator.  Samples are bound to the template they
        were extracted under.  The write is atomic (tmp + ``os.replace``).
        """
        atomic_write_json(path, self.samples_payload())

    def samples_payload(self) -> dict:
        """The JSON payload ``save_samples`` writes."""
        return {
            "format": SAMPLES_FORMAT,
            "template": self.template.name,
            "processor_family": self.processor_family,
            "operating_point": (
                self.operating_point.key if self.operating_point is not None else None
            ),
            "samples": [sample.to_payload() for sample in self.samples],
        }

    def load_samples(self, path: str) -> int:
        """Load previously saved samples; returns how many were added.

        Raises :class:`ValueError` with an actionable message on corrupted
        or truncated JSON, a foreign format tag, a template mismatch, or
        malformed/non-finite sample records.  The characterizer is left
        unchanged on any failure (all records are validated before any is
        added).
        """
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"samples file {path!r} is not valid JSON ({exc}); the file "
                    "is corrupted or was truncated mid-write — delete it and re-run"
                ) from exc
        if not isinstance(payload, dict) or payload.get("format") != SAMPLES_FORMAT:
            raise ValueError(f"unrecognized samples format in {path!r}")
        if payload.get("template") != self.template.name:
            raise ValueError(
                f"samples were extracted under template {payload.get('template')!r}, "
                f"this characterizer uses {self.template.name!r}"
            )
        # Pre-operating-point sample files carry no key, which is exactly
        # the None (calibration-reference) binding — so legacy files load
        # into a reference-point characterizer unchanged.
        saved_point = payload.get("operating_point")
        own_point = (
            self.operating_point.key if self.operating_point is not None else None
        )
        if saved_point != own_point:
            raise ValueError(
                f"samples were collected at operating point "
                f"{saved_point or 'calibration reference'}, this characterizer "
                f"runs at {own_point or 'calibration reference'}; energies at "
                "different points are not comparable — re-characterize instead"
            )
        try:
            loaded = [CharacterizationSample.from_payload(p) for p in payload["samples"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"samples file {path!r} has a malformed sample record: {exc}"
            ) from exc
        for sample in loaded:
            self._check_sample(sample)
        self.samples.extend(loaded)
        return len(loaded)

    def _check_sample(self, sample: CharacterizationSample) -> None:
        if sample.variables.shape != (len(self.template),):
            raise ValueError(
                f"sample {sample.name!r} has {sample.variables.shape[0]} variables, "
                f"template expects {len(self.template)}"
            )
        if not np.all(np.isfinite(sample.variables)):
            raise ValueError(
                f"sample {sample.name!r} has non-finite template variables; "
                "refusing to add it (it would poison the regression)"
            )
        if not np.isfinite(sample.energy):
            raise ValueError(
                f"sample {sample.name!r} has non-finite energy {sample.energy!r}; "
                "refusing to add it (it would poison the regression)"
            )

    def add_sample(self, sample: CharacterizationSample) -> None:
        """Add a precomputed sample (e.g. from a cached measurement).

        Rejects shape mismatches and NaN/Inf variables or energy with a
        clear :class:`ValueError` instead of letting them silently poison
        the regression.
        """
        self._check_sample(sample)
        self.samples.append(sample)

    # -- fitting -----------------------------------------------------------

    def design_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.samples:
            raise ValueError("no characterization samples collected")
        design = np.vstack([sample.variables for sample in self.samples])
        energies = np.array([sample.energy for sample in self.samples])
        return design, energies

    def fit(self, with_loocv: bool = False) -> CharacterizationResult:
        """Fit the energy coefficients and package the result."""
        design, energies = self.design_matrix()
        if self.method == "ridge":
            regression = fit_ridge(design, energies, alpha=self.ridge_alpha)
        elif self.method == "ols":
            regression = fit_least_squares(design, energies)
        else:
            regression = fit_nnls(design, energies)

        loo = None
        if with_loocv and design.shape[0] > design.shape[1]:
            loo = leave_one_out_errors(design, energies)

        fit_info = {
            "samples": len(self.samples),
            "method": self.method,
            "rms_percent_error": regression.rms_percent_error,
            "max_abs_percent_error": regression.max_abs_percent_error,
            "r_squared": regression.r_squared,
            "condition_number": regression.condition_number,
        }
        if self.operating_point is not None:
            fit_info["operating_point"] = self.operating_point.key
        model = EnergyMacroModel(
            template=self.template,
            coefficients=regression.coefficients,
            processor_family=self.processor_family,
            fit_info=fit_info,
            operating_point=self.operating_point,
        )
        return CharacterizationResult(
            model=model,
            samples=list(self.samples),
            design=design,
            energies=energies,
            regression=regression,
            loo_percent_errors=loo,
        )


def characterize(
    runs: Sequence[tuple[ProcessorConfig, Program]],
    template: Optional[MacroModelTemplate] = None,
    processor_family: str = "xt1040",
    method: str = "nnls",
    progress: Optional[Callable[[str], None]] = None,
    operating_point: "OperatingPoint | str | None" = None,
) -> CharacterizationResult:
    """One-shot, all-or-nothing characterization over (config, program) pairs.

    The first simulation/estimation error aborts the run; use
    :class:`repro.core.runner.CharacterizationRunner` for per-sample
    fault isolation.
    """
    characterizer = Characterizer(
        template=template,
        processor_family=processor_family,
        method=method,
        operating_point=operating_point,
    )
    for config, program in runs:
        if progress is not None:
            progress(f"characterizing {program.name} on {config.name}")
        characterizer.add_program(config, program)
    return characterizer.fit()
