"""``repro.core`` — the paper's contribution: the energy macro-model.

Typical use::

    from repro.core import Characterizer, audit_coverage

    characterizer = Characterizer()
    for config, program in characterization_suite:
        characterizer.add_program(config, program)
    result = characterizer.fit()
    model = result.model                       # 21 fitted coefficients
    estimate = model.estimate(config, program) # fast path: ISS only
"""

from .characterize import (
    CharacterizationResult,
    CharacterizationSample,
    Characterizer,
    characterize,
)
from .coverage import CoverageReport, audit_coverage, collinear_columns
from .estimator import ComparisonRow, EstimationStudy, StudyReport
from .extract import extract_variables, variables_as_dict
from .model import EnergyMacroModel, MacroEstimate
from .profiler import (
    CodeRegion,
    EnergyProfiler,
    ProfileReport,
    RegionProfile,
    RegionStatsObserver,
    regions_from_symbols,
)
from .regression import (
    CONDITION_WARNING_THRESHOLD,
    IllConditionedDesignWarning,
    RegressionError,
    RegressionResult,
    column_coverage,
    fit_least_squares,
    fit_nnls,
    fit_ridge,
    leave_one_out_errors,
)
from .runner import (
    CharacterizationRunError,
    CharacterizationRunner,
    CoverageLossError,
    RunReport,
    RunnerTask,
    SampleFailure,
    TooManyFailures,
)
from .resource import ResourceUsage, analyze_resource_usage
from .template import (
    CLASS_VARIABLES,
    EVENT_VARIABLES,
    SIDE_EFFECT_VARIABLE,
    STRUCTURAL_VARIABLES,
    MacroModelTemplate,
    MacroModelVariable,
    VariableDomain,
    default_template,
    instruction_level_template,
    unweighted_template,
)

__all__ = [
    "CLASS_VARIABLES",
    "CONDITION_WARNING_THRESHOLD",
    "CharacterizationResult",
    "CharacterizationRunError",
    "CharacterizationRunner",
    "CodeRegion",
    "CharacterizationSample",
    "Characterizer",
    "ComparisonRow",
    "CoverageLossError",
    "CoverageReport",
    "IllConditionedDesignWarning",
    "RunReport",
    "RunnerTask",
    "SampleFailure",
    "TooManyFailures",
    "EVENT_VARIABLES",
    "EnergyMacroModel",
    "EnergyProfiler",
    "EstimationStudy",
    "MacroEstimate",
    "MacroModelTemplate",
    "MacroModelVariable",
    "ProfileReport",
    "RegionProfile",
    "RegionStatsObserver",
    "RegressionError",
    "RegressionResult",
    "ResourceUsage",
    "SIDE_EFFECT_VARIABLE",
    "STRUCTURAL_VARIABLES",
    "StudyReport",
    "VariableDomain",
    "analyze_resource_usage",
    "regions_from_symbols",
    "audit_coverage",
    "characterize",
    "collinear_columns",
    "column_coverage",
    "default_template",
    "extract_variables",
    "fit_least_squares",
    "fit_nnls",
    "fit_ridge",
    "instruction_level_template",
    "leave_one_out_errors",
    "unweighted_template",
    "variables_as_dict",
]
