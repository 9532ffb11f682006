"""The paper's experiments, runnable as a library.

One function per table/figure of the evaluation section, all operating on
a shared :class:`ExperimentContext` (the characterized macro-model plus
the suites), so the pytest benchmarks, the examples and the
EXPERIMENTS.md generator never duplicate experiment logic:

=====================  ====================================================
:func:`run_table1`     fitted energy coefficients (paper Table I)
:func:`run_fig3`       per-test-program fitting errors (paper Fig. 3)
:func:`run_table2`     unseen-application accuracy + speedup (Table II)
:func:`run_fig4`       Reed-Solomon relative accuracy (Fig. 4)
:func:`run_speedup`    macro-model vs reference wall-clock (Sec. V-B text)
:func:`run_ablation_hybrid`        hybrid vs instruction-only template
:func:`run_ablation_bitwidth`      C(w) law vs unweighted structural vars
:func:`run_ablation_ground_truth`  data-dependent vs frozen ground truth
=====================  ====================================================
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..core import (
    CharacterizationResult,
    CharacterizationRunner,
    Characterizer,
    CoverageReport,
    EstimationStudy,
    MacroModelTemplate,
    RunReport,
    RunnerTask,
    StudyReport,
    instruction_level_template,
    unweighted_template,
)
from ..core.model import EnergyMacroModel
from ..programs import (
    BenchmarkCase,
    application_suite,
    characterization_suite,
    reed_solomon_choices,
)
from ..rtl import RtlEnergyEstimator, generate_netlist
from ..obs import run_session
from .metrics import spearman_rho


@dataclasses.dataclass
class ExperimentContext:
    """Shared state: the characterized model + evaluation suites."""

    characterization: CharacterizationResult
    coverage: CoverageReport
    suite: list[BenchmarkCase]
    applications: list[BenchmarkCase]
    rs_choices: list[BenchmarkCase]
    method: str
    #: fault-isolation record of the characterization run (None only for
    #: contexts built before the fault-tolerant runner existed)
    run_report: Optional[RunReport] = None

    @property
    def model(self) -> EnergyMacroModel:
        return self.characterization.model


def build_context(
    method: str = "nnls",
    template: Optional[MacroModelTemplate] = None,
    include_variants: bool = True,
    suite: Optional[Sequence[BenchmarkCase]] = None,
    fault_plan=None,
    max_failures: Optional[int] = None,
) -> ExperimentContext:
    """Run the full characterization flow and package the context.

    The characterization loop runs under the fault-tolerant
    :class:`~repro.core.CharacterizationRunner`, so a paper-reproduction
    sweep survives individual bad samples instead of discarding the run.
    ``fault_plan`` (a :class:`repro.testing.faults.FaultPlan`) injects
    deterministic faults into the session/energy stages — used by the
    robustness tests.  Failures are reported in
    ``ExperimentContext.run_report``.
    """
    cases = list(suite) if suite is not None else characterization_suite(include_variants)
    characterizer = Characterizer(template=template, method=method)
    simulate = estimate = None
    if fault_plan is not None:
        simulate = fault_plan.wrap_session()
        estimate = fault_plan.wrap_estimate()
    runner = CharacterizationRunner(
        characterizer,
        max_failures=max_failures,
        simulate=simulate,
        estimate_energy=estimate,
    )
    report = runner.run(
        [RunnerTask.from_case(case) for case in cases],
        with_loocv=(method != "nnls"),
    )
    assert report.result is not None and report.coverage is not None
    return ExperimentContext(
        characterization=report.result,
        coverage=report.coverage,
        suite=cases,
        applications=application_suite(),
        rs_choices=reed_solomon_choices(),
        method=method,
        run_report=report,
    )


_CACHED_CONTEXT: Optional[ExperimentContext] = None


def default_context() -> ExperimentContext:
    """A process-wide cached default context (characterization is slow)."""
    global _CACHED_CONTEXT
    if _CACHED_CONTEXT is None:
        _CACHED_CONTEXT = build_context()
    return _CACHED_CONTEXT


# ---------------------------------------------------------------------------
# Table I — energy coefficients
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Table1Result:
    model: EnergyMacroModel
    coverage: CoverageReport

    def report(self) -> str:
        return self.model.coefficient_table() + "\n\n" + self.coverage.summary()


def run_table1(ctx: Optional[ExperimentContext] = None) -> Table1Result:
    """Paper Table I: the 21 fitted energy coefficients."""
    ctx = ctx or default_context()
    return Table1Result(model=ctx.model, coverage=ctx.coverage)


# ---------------------------------------------------------------------------
# Fig. 3 — fitting errors of the characterization programs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Fig3Result:
    characterization: CharacterizationResult

    @property
    def rms(self) -> float:
        return self.characterization.regression.rms_percent_error

    @property
    def max_abs(self) -> float:
        return self.characterization.regression.max_abs_percent_error

    def report(self) -> str:
        from .charts import bar_chart

        chart = bar_chart(
            [sample.name for sample in self.characterization.samples],
            list(self.characterization.regression.percent_errors),
            title="fitting error per characterization program (the paper's Fig. 3)",
        )
        return self.characterization.fitting_error_table() + "\n\n" + chart


def run_fig3(ctx: Optional[ExperimentContext] = None) -> Fig3Result:
    """Paper Fig. 3: per-test-program fitting error profile."""
    ctx = ctx or default_context()
    return Fig3Result(characterization=ctx.characterization)


# ---------------------------------------------------------------------------
# Table II — application accuracy (+ the speedup claim)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Table2Result:
    study: StudyReport

    @property
    def mean_abs_percent_error(self) -> float:
        return self.study.mean_abs_percent_error

    @property
    def max_abs_percent_error(self) -> float:
        return self.study.max_abs_percent_error

    @property
    def mean_speedup(self) -> float:
        return self.study.mean_speedup

    def report(self) -> str:
        return self.study.table()


def run_table2(ctx: Optional[ExperimentContext] = None) -> Table2Result:
    """Paper Table II: macro-model vs reference on ten unseen apps."""
    ctx = ctx or default_context()
    study = EstimationStudy(ctx.model)
    for case in ctx.applications:
        config, program = case.build()
        study.compare(config, program, max_instructions=case.max_instructions)
    return Table2Result(study=study.report())


def run_speedup(ctx: Optional[ExperimentContext] = None) -> Table2Result:
    """The paper's Sec. V-B speedup claim rides on the Table II runs."""
    return run_table2(ctx)


# ---------------------------------------------------------------------------
# Fig. 4 — relative accuracy over Reed-Solomon design points
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Fig4Row:
    choice: str
    macro_energy: float
    reference_energy: float
    cycles: int

    @property
    def percent_error(self) -> float:
        if self.reference_energy == 0:
            return 0.0
        return 100.0 * (self.macro_energy - self.reference_energy) / self.reference_energy


@dataclasses.dataclass
class Fig4Result:
    rows: list[Fig4Row]

    @property
    def rank_correlation(self) -> float:
        return spearman_rho(
            [row.macro_energy for row in self.rows],
            [row.reference_energy for row in self.rows],
        )

    @property
    def max_abs_percent_error(self) -> float:
        return max(abs(row.percent_error) for row in self.rows)

    def report(self) -> str:
        lines = [
            f"{'custom-instruction choice':<28}{'macro':>12}{'reference':>12}"
            f"{'err %':>8}{'cycles':>10}"
        ]
        lines.append("-" * 70)
        for row in self.rows:
            lines.append(
                f"{row.choice:<28}{row.macro_energy:>12.1f}{row.reference_energy:>12.1f}"
                f"{row.percent_error:>+8.2f}{row.cycles:>10}"
            )
        lines.append("-" * 70)
        lines.append(
            f"Spearman rank correlation (profiles track): {self.rank_correlation:.3f}   "
            f"max |err| {self.max_abs_percent_error:.2f}%"
        )
        from .charts import profile_chart

        chart = profile_chart(
            [row.choice for row in self.rows],
            {
                "macro": [row.macro_energy for row in self.rows],
                "ref  ": [row.reference_energy for row in self.rows],
            },
            title="energy profile over custom-instruction choices (the paper's Fig. 4)",
        )
        return "\n".join(lines) + "\n\n" + chart


def run_fig4(ctx: Optional[ExperimentContext] = None) -> Fig4Result:
    """Paper Fig. 4: Reed-Solomon with four custom-instruction choices."""
    ctx = ctx or default_context()
    rows: list[Fig4Row] = []
    for case in ctx.rs_choices:
        config, program = case.build()
        macro = ctx.model.estimate(config, program, max_instructions=case.max_instructions)
        estimator = RtlEnergyEstimator(generate_netlist(config))
        reference, _ = estimator.estimate_program(
            program, max_instructions=case.max_instructions
        )
        rows.append(
            Fig4Row(
                choice=case.name,
                macro_energy=macro.energy,
                reference_energy=reference.total,
                cycles=macro.cycles,
            )
        )
    return Fig4Result(rows=rows)


# ---------------------------------------------------------------------------
# Suite-size study (extension): how many programs does the fit need?
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SuiteSizeRow:
    size: int
    rank: int
    fit_rms: float
    app_mean_error: float
    app_max_error: float


@dataclasses.dataclass
class SuiteSizeResult:
    """Unseen-application error as a function of characterization-suite size.

    The quantitative basis for DESIGN.md deviation D2: the paper's ~25
    real benchmarks evidently spanned enough directions; our synthetic
    25-program core alone leaves the 21-coefficient fit under-determined,
    and the density/width/toggle variants buy the identifiability back.
    """

    rows: list[SuiteSizeRow]

    def report(self) -> str:
        lines = [
            f"{'suite size':>10}{'rank':>6}{'fit RMS %':>11}"
            f"{'apps mean %':>13}{'apps max %':>12}"
        ]
        lines.append("-" * 52)
        for row in self.rows:
            lines.append(
                f"{row.size:>10}{row.rank:>6}{row.fit_rms:>11.2f}"
                f"{row.app_mean_error:>13.2f}{row.app_max_error:>12.2f}"
            )
        return "\n".join(lines)


def run_suite_size_study(
    ctx: Optional[ExperimentContext] = None,
    sizes: Optional[Sequence[int]] = None,
) -> SuiteSizeResult:
    """Refit on growing prefixes of the suite; evaluate Table II error."""
    ctx = ctx or default_context()
    total = len(ctx.suite)
    if sizes is None:
        sizes = sorted({25, 25 + (total - 25) // 3, 25 + 2 * (total - 25) // 3, total})
    rows: list[SuiteSizeRow] = []
    design = ctx.characterization.design
    energies = ctx.characterization.energies
    for size in sizes:
        sub_design = design[:size]
        sub_energies = energies[:size]
        from ..core.regression import fit_nnls

        regression = fit_nnls(sub_design, sub_energies)
        model = EnergyMacroModel(ctx.model.template, regression.coefficients)
        errors = _application_errors(model, ctx.applications)
        mean, peak = _mean_max(errors)
        rows.append(
            SuiteSizeRow(
                size=size,
                rank=int(np.linalg.matrix_rank(sub_design)),
                fit_rms=regression.rms_percent_error,
                app_mean_error=mean,
                app_max_error=peak,
            )
        )
    return SuiteSizeResult(rows=rows)


# ---------------------------------------------------------------------------
# Suite quality (extension): LOOCV + coverage in one report
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SuiteQualityResult:
    """Cross-validated generalization of the characterization suite.

    Leave-one-out errors (OLS) approximate how the fit would estimate a
    characterization program it had never seen — a suite-internal preview
    of Table II generalization, and the diagnostic a suite designer
    iterates on.  High-leverage programs (the only sample exercising some
    variable direction) show up as LOO outliers.
    """

    names: list[str]
    loo_percent_errors: np.ndarray
    coverage: CoverageReport

    @property
    def loo_rms(self) -> float:
        return float(np.sqrt(np.mean(self.loo_percent_errors**2)))

    @property
    def loo_max_abs(self) -> float:
        return float(np.max(np.abs(self.loo_percent_errors)))

    def worst(self, count: int = 5) -> list[tuple[str, float]]:
        order = np.argsort(-np.abs(self.loo_percent_errors))
        return [(self.names[i], float(self.loo_percent_errors[i])) for i in order[:count]]

    def report(self) -> str:
        lines = [
            f"suite quality: {len(self.names)} programs, "
            f"LOOCV RMS {self.loo_rms:.2f}%  max |err| {self.loo_max_abs:.2f}%",
            "highest-leverage programs (largest leave-one-out errors):",
        ]
        for name, error in self.worst():
            lines.append(f"  {name:<26}{error:+8.2f}%")
        lines.append("")
        lines.append(self.coverage.summary())
        return "\n".join(lines)


def run_suite_quality(ctx: Optional[ExperimentContext] = None) -> SuiteQualityResult:
    """Leave-one-out cross-validation + coverage audit of the suite."""
    from ..core.regression import leave_one_out_errors

    ctx = ctx or default_context()
    design = ctx.characterization.design
    energies = ctx.characterization.energies
    loo = leave_one_out_errors(design, energies)
    return SuiteQualityResult(
        names=[sample.name for sample in ctx.characterization.samples],
        loo_percent_errors=loo,
        coverage=ctx.coverage,
    )


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md design-choice studies)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class AblationResult:
    name: str
    baseline_label: str
    variant_label: str
    baseline_mean_error: float
    variant_mean_error: float
    baseline_max_error: float
    variant_max_error: float

    def report(self) -> str:
        return (
            f"ablation {self.name}:\n"
            f"  {self.baseline_label:<38} mean |err| {self.baseline_mean_error:6.2f}%  "
            f"max {self.baseline_max_error:6.2f}%\n"
            f"  {self.variant_label:<38} mean |err| {self.variant_mean_error:6.2f}%  "
            f"max {self.variant_max_error:6.2f}%"
        )


def _application_errors(model: EnergyMacroModel, applications: list[BenchmarkCase]) -> list[float]:
    errors: list[float] = []
    for case in applications:
        config, program = case.build()
        macro = model.estimate(config, program, max_instructions=case.max_instructions)
        estimator = RtlEnergyEstimator(generate_netlist(config))
        reference, _ = estimator.estimate_program(
            program, max_instructions=case.max_instructions
        )
        errors.append(100.0 * (macro.energy - reference.total) / reference.total)
    return errors


def _mean_max(errors: list[float]) -> tuple[float, float]:
    magnitudes = [abs(e) for e in errors]
    return sum(magnitudes) / len(magnitudes), max(magnitudes)


def run_ablation_hybrid(ctx: Optional[ExperimentContext] = None) -> AblationResult:
    """Hybrid (instruction + structural) vs instruction-level-only template.

    Tests the paper's core hypothesis (Sec. I): for extensible processors
    a hybrid macro-model is needed; instruction-level variables alone
    cannot account for custom-hardware energy.
    """
    ctx = ctx or default_context()
    alt = build_context(
        method=ctx.method, template=instruction_level_template(), suite=ctx.suite
    )
    base_errors = _application_errors(ctx.model, ctx.applications)
    variant_errors = _application_errors(alt.model, ctx.applications)
    base_mean, base_max = _mean_max(base_errors)
    var_mean, var_max = _mean_max(variant_errors)
    return AblationResult(
        name="hybrid-vs-instruction-only",
        baseline_label="hybrid template (21 vars, the paper's)",
        variant_label="instruction-level only (11 vars)",
        baseline_mean_error=base_mean,
        variant_mean_error=var_mean,
        baseline_max_error=base_max,
        variant_max_error=var_max,
    )


def run_ablation_bitwidth(ctx: Optional[ExperimentContext] = None) -> AblationResult:
    """Bit-width complexity law C(w) vs unweighted instance counting.

    Tests the paper's Sec. IV-B.1 choice of weighting structural variables
    by the linear/quadratic complexity of each component.
    """
    ctx = ctx or default_context()
    alt = build_context(method=ctx.method, template=unweighted_template(), suite=ctx.suite)
    base_errors = _application_errors(ctx.model, ctx.applications)
    variant_errors = _application_errors(alt.model, ctx.applications)
    base_mean, base_max = _mean_max(base_errors)
    var_mean, var_max = _mean_max(variant_errors)
    return AblationResult(
        name="bitwidth-law",
        baseline_label="complexity-weighted C(w) (the paper's)",
        variant_label="unweighted instance-cycle counting",
        baseline_mean_error=base_mean,
        variant_mean_error=var_mean,
        baseline_max_error=base_max,
        variant_max_error=var_max,
    )


def run_ablation_ground_truth(ctx: Optional[ExperimentContext] = None) -> AblationResult:
    """Where does the error come from?  Freeze ground-truth data dependence.

    With switching activity and per-mnemonic variation frozen at their
    means, the reference estimator becomes expressible by the template
    and the fit collapses toward 0% — evidence that the headline errors
    measure the class-level *abstraction*, not the regression machinery.
    """
    ctx = ctx or default_context()
    characterizer = Characterizer(method=ctx.method)
    for case in ctx.suite:
        config, program = case.build()
        frozen = RtlEnergyEstimator(generate_netlist(config), data_dependent=False)
        observer = frozen.observer()
        sim = run_session(
            config,
            program,
            observers=(observer,),
            max_instructions=case.max_instructions,
        )
        report = observer.report
        from ..core import extract_variables
        from ..core.characterize import CharacterizationSample

        characterizer.add_sample(
            CharacterizationSample(
                name=case.name,
                processor_name=config.name,
                variables=extract_variables(sim.stats, config, characterizer.template),
                energy=report.total,
                stats=sim.stats,
            )
        )
    frozen_fit = characterizer.fit()
    live = ctx.characterization.regression
    return AblationResult(
        name="ground-truth-data-dependence",
        baseline_label="data-dependent ground truth (fit error)",
        variant_label="frozen-activity ground truth (fit error)",
        baseline_mean_error=live.mean_abs_percent_error,
        variant_mean_error=frozen_fit.regression.mean_abs_percent_error,
        baseline_max_error=live.max_abs_percent_error,
        variant_max_error=frozen_fit.regression.max_abs_percent_error,
    )
