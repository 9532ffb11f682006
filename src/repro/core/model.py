"""The fitted energy macro-model object.

An :class:`EnergyMacroModel` is the artifact the characterization flow
produces once per processor *family*: 21 energy coefficients over the
macro-model template.  Applying it to a new application with arbitrary
custom instructions requires only instruction-set simulation and
resource-usage analysis — no processor generation, no RTL simulation —
which is the paper's headline speed win.

A model is fitted at one technology **operating point** (process node,
supply voltage, clock).  ``model.at("65nm@1.1V@800MHz")`` derives the
same model rescaled to another point via the committed calibration table
(see ``repro.tech`` and ``docs/CALIBRATION.md``); the derived model's
JSON — and therefore its content digest — carries the point.  A point
rescales the coefficients only, never the variables: one simulation's
variables vector prices every point through :meth:`EnergyMacroModel.energy_of`,
the one place a vector becomes energy.  ``estimate_many`` shares one
simulation across jobs that differ only in the point, and ``repro
serve`` keys its memo by the point-free model digest and prices each
request at its own point.

Models serialize to JSON so a characterized model can ship without the
characterization infrastructure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..asm import Program
from ..obs import SimObserver, run_session
from ..tech import CalibrationError, OperatingPoint, TechCalibration, default_calibration
from ..xtcore import (
    DEFAULT_MAX_INSTRUCTIONS,
    ExecutionStats,
    ProcessorConfig,
    SimulationResult,
    run_batch,
    semantic_fingerprint,
)
from .extract import extract_variables
from .resource import analyze_resource_usage
from .template import (
    MacroModelTemplate,
    default_template,
    instruction_level_template,
    unweighted_template,
)

#: Current model-file schema.  ``/2`` adds the ``operating_point`` field;
#: a file in any other format does not load.
MODEL_FORMAT = "repro-energy-macro-model/2"

_TEMPLATE_REGISTRY = {
    "hybrid-21": default_template,
    "instruction-only-11": instruction_level_template,
    "hybrid-21-unweighted": unweighted_template,
}

if TYPE_CHECKING:  # pragma: no cover
    from .runner import SampleFailure

#: One estimation job: an already-built ``(config, program,
#: operating_point, max_instructions)``; ``operating_point`` may be None.
EstimateJob = tuple[ProcessorConfig, Program, "OperatingPoint | str | None", int]


class Estimates(list):
    """:meth:`EnergyMacroModel.estimate_many` outcomes, in job order.

    Each is a :class:`MacroEstimate` or a ``SampleFailure``.  ``passes``
    holds the size of every simulation pass behind them: 1 for a solo
    run, more for one :func:`repro.xtcore.run_batch` pass.
    """

    def __init__(self, outcomes: Sequence, passes: list[int]) -> None:
        super().__init__(outcomes)
        self.passes = passes


@dataclasses.dataclass
class MacroEstimate:
    """One macro-model energy estimate for an application."""

    program_name: str
    processor_name: str
    energy: float
    stats: ExecutionStats
    variables: dict[str, float]
    operating_point: Optional[OperatingPoint] = None

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def seconds(self) -> Optional[float]:
        """Wall-clock runtime; needs an operating point to pin the clock."""
        if self.operating_point is None:
            return None
        return self.operating_point.seconds(self.cycles)

    @property
    def edp_seconds(self) -> Optional[float]:
        """Energy-delay product with delay in real seconds."""
        seconds = self.seconds
        if seconds is None:
            return None
        return self.energy * seconds

    def summary(self) -> str:
        text = (
            f"macro-model estimate: {self.program_name} on {self.processor_name}: "
            f"{self.energy:.1f} units over {self.cycles} cycles"
        )
        if self.operating_point is not None:
            text += (
                f" ({self.seconds * 1e6:.2f} us at {self.operating_point.key})"
            )
        return text


@dataclasses.dataclass
class EnergyMacroModel:
    """A characterized extensible-processor energy macro-model.

    ``operating_point`` records where the coefficients are valid: the
    point the model was characterized at, or the point a derived model
    was rescaled to.  ``None`` means the calibration table's reference
    point (every pre-``/2`` model file is in that state).
    """

    template: MacroModelTemplate
    coefficients: np.ndarray
    processor_family: str = "xt1040"
    fit_info: dict = dataclasses.field(default_factory=dict)
    operating_point: Optional[OperatingPoint] = None

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (len(self.template),):
            raise ValueError(
                f"coefficient vector shape {self.coefficients.shape} does not match "
                f"template {self.template.name!r} with {len(self.template)} variables"
            )
        if self.operating_point is not None and not isinstance(
            self.operating_point, OperatingPoint
        ):
            self.operating_point = OperatingPoint.parse(self.operating_point)
        # Per-instance memos of derived models (key -> EnergyMacroModel)
        # and of the content digest.  Kept out of __eq__ semantics by not
        # being dataclass fields, and out of pickles via __getstate__, so
        # an unpickled copy starts with empty memos.
        self._derived_cache: dict[str, "EnergyMacroModel"] = {}
        self._digest: Optional[str] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_derived_cache", None)
        state.pop("_digest", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived_cache = {}
        self._digest = None

    def digest(self) -> str:
        """sha256 of :meth:`to_json`: the model's content address (memoized).

        Derived models carry their operating point in the JSON, so each
        point has its own digest; request keys build on it.
        """
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
        return self._digest

    # -- operating-point rescaling -----------------------------------------

    def at(
        self,
        operating_point: "OperatingPoint | str | None",
        calibration: Optional[TechCalibration] = None,
    ) -> "EnergyMacroModel":
        """This model rescaled to another operating point.

        Per-operation energies scale by the calibration's first-order
        CMOS factor ``C(node)/C(node_base) * (V/V_base)^2`` relative to
        the point this model is valid at (its own ``operating_point``,
        or the calibration reference when unset).  Frequency is carried
        along for time conversion but does not touch the coefficients —
        and nothing here touches simulation, so ``ExecutionStats`` stay
        bitwise identical across points.

        ``at(None)`` returns ``self`` (the model at its own fit point).
        Results are memoized per instance under the point's canonical
        key, so repeated requests for the same point (the DSE hot loop,
        the serving frontend) share one derived model object; a
        canonical key string finds its entry without being parsed again.
        """
        if operating_point is None:
            return self
        cache_key: Optional[str] = None
        if calibration is None:
            if isinstance(operating_point, str):
                cached = self._derived_cache.get(operating_point)
                if cached is not None:
                    return cached
            calibration = default_calibration()
            cache_key = OperatingPoint.parse(operating_point).key
            cached = self._derived_cache.get(cache_key)
            if cached is not None:
                return cached
        op = calibration.validate(operating_point)
        base = self.operating_point or calibration.reference
        scale = calibration.relative_scale(op, base)
        derived = EnergyMacroModel(
            template=self.template,
            coefficients=self.coefficients * scale,
            processor_family=self.processor_family,
            fit_info={
                **self.fit_info,
                "derived_from": base.key,
                "energy_scale": scale,
            },
            operating_point=op,
        )
        if cache_key is not None:
            self._derived_cache[cache_key] = derived
        return derived

    # -- estimation -------------------------------------------------------

    def coefficient(self, key: str) -> float:
        """The fitted energy coefficient of one template variable."""
        return float(self.coefficients[self.template.index_of(key)])

    def coefficients_by_key(self) -> dict[str, float]:
        return dict(zip(self.template.keys(), self.coefficients.tolist()))

    def energy_of(self, variables: "np.ndarray | Sequence[float]") -> float:
        """Energy of one variables vector, in template order: Σ coefficient × variable.

        The one pricing site: the estimation kernel, :meth:`estimate_from_stats`
        and the serve frontend all price through it, so a vector priced
        anywhere gives the kernel's bits.
        """
        return float(np.asarray(variables, dtype=float) @ self.coefficients)

    def estimate_from_stats(self, stats: ExecutionStats, config: ProcessorConfig) -> float:
        """Energy from already-collected execution statistics."""
        return self.energy_of(extract_variables(stats, config, self.template))

    def estimate(
        self,
        config: ProcessorConfig,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> MacroEstimate:
        """The fast estimation path: ISS (no trace) + variable extraction.

        This is exactly what the paper promises: evaluating a candidate
        custom-instruction set needs no synthesized processor.  It is the
        one-job case of :meth:`estimate_many`, except that a failure
        raises instead of becoming a record.
        """
        job = (config, program, None, max_instructions)
        (run,) = self._simulate([job], ())
        return self._finish(job, run, {})

    def estimate_many(
        self,
        jobs: Sequence[EstimateJob],
        observers: Sequence[SimObserver] = (),
    ) -> "Estimates":
        """Estimate every job; the one estimation kernel of the repo.

        Jobs sharing one program (by content digest), one semantic
        partition (:func:`repro.xtcore.semantic_fingerprint`) and one
        instruction budget execute the identical trajectory, so each such
        group of two or more runs through a single
        :func:`repro.xtcore.run_batch` pass; singles run through
        :func:`repro.obs.run_session`.  Each job is then scored by this
        model at its own operating point (:meth:`at`), so jobs differing
        only in the point share one simulation.  Estimates are bitwise
        identical to :meth:`estimate` at that point.

        ``observers`` see every job as one run, batched or not.  Failures
        are isolated per job as ``SampleFailure`` records at stage
        ``estimate``; a ``run_batch`` that raises fails every member of
        its group.  Results keep the order of ``jobs``; their ``passes``
        lists the size of every simulation pass made, failed ones too.
        """
        outcomes: list = [None] * len(jobs)
        groups: dict = {}
        for index, (config, program, _, max_instructions) in enumerate(jobs):
            key = index
            if len(jobs) > 1:
                try:
                    key = (program.digest(), semantic_fingerprint(config), max_instructions)
                except Exception:  # noqa: BLE001 — runs alone; its own run reports it
                    pass
            groups.setdefault(key, []).append(index)
        passes = []
        for members in groups.values():
            group = [jobs[index] for index in members]
            passes.append(len(group))
            try:
                runs = self._simulate(group, observers)
            except Exception as exc:  # noqa: BLE001 — the fault is trajectory-wide
                for index, job in zip(members, group):
                    outcomes[index] = _failure(job, exc)
                continue
            usages: dict = {}
            for index, job, run in zip(members, group, runs):
                try:
                    outcomes[index] = self._finish(job, run, usages)
                except Exception as exc:  # noqa: BLE001 — per-job isolation
                    outcomes[index] = _failure(job, exc)
        return Estimates(outcomes, passes)

    def _simulate(
        self, group: Sequence[EstimateJob], observers: Sequence[SimObserver]
    ) -> list[SimulationResult]:
        """One execution pass for a group of trajectory-compatible jobs."""
        config, program, _, max_instructions = group[0]
        if len(group) == 1:
            return [
                run_session(
                    config, program, observers=observers, max_instructions=max_instructions
                )
            ]
        runs = run_batch(
            [job[0] for job in group], program, max_instructions=max_instructions
        )
        for job, run in zip(group, runs):
            for observer in observers:
                observer.on_run_start(job[0], job[1])
                observer.on_run_finish(run)
        return runs

    def _finish(
        self, job: EstimateJob, run: SimulationResult, usages: dict
    ) -> MacroEstimate:
        """Variables and dot product for one job at its operating point.

        ``usages`` memoizes the resource-usage analysis within one pass:
        it reads the extensions and the fold's custom counts and bus
        cycles, and members of one pass sharing the extension tuple and
        the lowering share the fold.
        """
        config, program, point, _ = job
        model = self.at(point)
        key = (id(config.extensions), config.lowering_key)
        usage = usages.get(key)
        if usage is None:
            usage = usages[key] = analyze_resource_usage(run.stats, config)
        variables = extract_variables(run.stats, config, model.template, usage=usage)
        return MacroEstimate(
            program_name=program.name,
            processor_name=config.name,
            energy=model.energy_of(variables),
            stats=run.stats,
            variables=dict(zip(model.template.keys(), variables.tolist())),
            operating_point=model.operating_point,
        )

    # -- reporting -----------------------------------------------------------

    def coefficient_table(self) -> str:
        """Format the fitted coefficients in the shape of the paper's Table I."""
        point = (
            self.operating_point.key
            if self.operating_point is not None
            else "calibration reference"
        )
        header = (
            f"Energy coefficients of the characterized {self.processor_family} processor\n"
            f"(template {self.template.name}; "
            f"{self.fit_info.get('samples', '?')} characterization programs; "
            f"operating point {point})\n"
        )
        rows = [f"{'coefficient':<16}{'description':<58}{'value':>12}"]
        rows.append("-" * 86)
        for variable, value in zip(self.template, self.coefficients):
            rows.append(f"{variable.key:<16}{variable.description:<58}{value:>12.2f}")
        return header + "\n".join(rows)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": MODEL_FORMAT,
            "template": self.template.name,
            "processor_family": self.processor_family,
            "coefficients": dict(
                zip(self.template.keys(), (float(c) for c in self.coefficients))
            ),
            "fit_info": self.fit_info,
            "operating_point": (
                self.operating_point.to_payload()
                if self.operating_point is not None
                else None
            ),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnergyMacroModel":
        payload = json.loads(text)
        file_format = payload.get("format")
        if file_format != MODEL_FORMAT:
            raise ValueError(f"unrecognized model format {file_format!r}")
        raw_point = payload.get("operating_point")
        try:
            operating_point = (
                OperatingPoint.from_payload(raw_point) if raw_point is not None else None
            )
        except CalibrationError as exc:
            raise ValueError(f"model file has a bad operating point: {exc}") from exc
        template_name = payload["template"]
        factory = _TEMPLATE_REGISTRY.get(template_name)
        if factory is None:
            raise ValueError(f"unknown template {template_name!r}")
        template = factory()
        stored = payload["coefficients"]
        missing = set(template.keys()) - set(stored)
        if missing:
            raise ValueError(f"model file missing coefficients {sorted(missing)}")
        coefficients = np.array([stored[key] for key in template.keys()], dtype=float)
        return cls(
            template=template,
            coefficients=coefficients,
            processor_family=payload.get("processor_family", "unknown"),
            fit_info=payload.get("fit_info", {}),
            operating_point=operating_point,
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "EnergyMacroModel":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _failure(job: EstimateJob, exc: BaseException) -> "SampleFailure":
    # imported here: the runner module imports this one
    from .runner import SampleFailure

    return SampleFailure.from_exception(job[1].name, job[0].name, "estimate", exc)
