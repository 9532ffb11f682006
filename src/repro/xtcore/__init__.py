"""``repro.xtcore`` — the extensible-processor substrate (Xtensa substitute)."""

from ..obs.records import ExecutionStats, TraceRecord, class_mix
from .batch import run_batch, semantic_fingerprint
from .caches import SetAssociativeCache
from .compiled import (
    CompilationCache,
    ExecutableProgram,
    SuperopProgram,
    compilation_cache,
    compile_program,
    compile_superops,
    describe_invalid_pc,
)
from .config import (
    DEFAULT_MAX_INSTRUCTIONS,
    CacheConfig,
    ProcessorConfig,
    TimingConfig,
    build_processor,
)
from .errors import SimulationError, SimulationLimitExceeded
from .interp import ReferenceSimulator
from .iss import (
    DEFAULT_STACK_TOP,
    EXIT_ADDRESS,
    SimulationResult,
    Simulator,
)

__all__ = [
    "CacheConfig",
    "CompilationCache",
    "DEFAULT_MAX_INSTRUCTIONS",
    "DEFAULT_STACK_TOP",
    "EXIT_ADDRESS",
    "ExecutableProgram",
    "ExecutionStats",
    "ProcessorConfig",
    "ReferenceSimulator",
    "SetAssociativeCache",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationResult",
    "Simulator",
    "SuperopProgram",
    "TimingConfig",
    "TraceRecord",
    "build_processor",
    "class_mix",
    "compilation_cache",
    "compile_program",
    "compile_superops",
    "describe_invalid_pc",
    "run_batch",
    "semantic_fingerprint",
]
