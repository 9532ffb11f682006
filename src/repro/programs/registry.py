"""Benchmark-case plumbing: source + extensions + functional checks.

A :class:`BenchmarkCase` bundles everything needed to run one workload on
one extended-processor configuration: the assembly source, the custom
instruction spec factories it relies on, and a functional check that
validates the simulated output against a pure-Python reference — every
benchmark in the suite is *verified*, not just executed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from ..asm import Program, assemble
from ..obs import SimObserver, run_session
from ..tie import TieSpec
from ..xtcore import (
    ExecutableProgram,
    ProcessorConfig,
    SimulationResult,
    build_processor,
    compilation_cache,
)

SpecFactory = Callable[[], TieSpec]
CheckFn = Callable[[SimulationResult], None]


@dataclasses.dataclass
class BenchmarkCase:
    """One (program, processor-extension) workload definition."""

    name: str
    description: str
    source: str
    spec_factories: tuple[SpecFactory, ...] = ()
    check: Optional[CheckFn] = None
    max_instructions: int = 2_000_000
    #: when set, the case runs on this pre-built (possibly shared)
    #: processor instead of compiling its own from ``spec_factories``.
    shared_config: Optional[ProcessorConfig] = None
    _built: Optional[tuple[ProcessorConfig, Program]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def build(self) -> tuple[ProcessorConfig, Program]:
        """Build (and cache) the processor config + assembled program.

        The cache matters: a :class:`~repro.xtcore.ProcessorConfig` compares
        by identity of its compiled extensions, so every consumer of this
        case must see the *same* config object.
        """
        if self._built is None:
            if self.shared_config is not None:
                config = self.shared_config
            else:
                specs = [factory() for factory in self.spec_factories]
                config = build_processor(f"xt-{self.name}", specs)
            program = assemble(self.source, self.name, isa=config.isa)
            self._built = (config, program)
        return self._built

    @property
    def config(self) -> ProcessorConfig:
        return self.build()[0]

    @property
    def program(self) -> Program:
        return self.build()[1]

    @property
    def executable(self) -> ExecutableProgram:
        """The case's compiled form, via the process-wide compilation cache.

        ``run()`` resolves the same cache entry through ``run_session``, so
        repeated runs of one case never re-lower the program; this accessor
        exists for callers that want the lowering itself (benchmarks,
        diagnostics).
        """
        config, program = self.build()
        return compilation_cache().get_or_compile(config, program)

    def run(self, observers: Sequence[SimObserver] = ()) -> SimulationResult:
        """Simulate the case (does not run the functional check)."""
        config, program = self.build()
        return run_session(
            config,
            program,
            observers=observers,
            max_instructions=self.max_instructions,
        )

    def run_verified(self, observers: Sequence[SimObserver] = ()) -> SimulationResult:
        """Simulate and run the functional check (if any)."""
        result = self.run(observers=observers)
        self.verify(result)
        return result

    def verify(self, result: SimulationResult) -> None:
        if self.check is not None:
            self.check(result)


def expect_words(symbol: str, expected: list[int]) -> CheckFn:
    """Check helper: memory at ``symbol`` must hold ``expected`` words."""

    def check(result: SimulationResult) -> None:
        actual = result.words(symbol, len(expected))
        masked = [value & 0xFFFFFFFF for value in expected]
        if actual != masked:
            mismatches = [
                f"[{i}] got {a:#x}, want {e:#x}"
                for i, (a, e) in enumerate(zip(actual, masked))
                if a != e
            ]
            raise AssertionError(
                f"{result.program.name}: output mismatch at {symbol!r}: "
                + "; ".join(mismatches[:8])
                + (f" (+{len(mismatches) - 8} more)" if len(mismatches) > 8 else "")
            )

    return check


def expect_word(symbol: str, expected: int) -> CheckFn:
    """Check helper: single 32-bit word at ``symbol``."""
    return expect_words(symbol, [expected])
