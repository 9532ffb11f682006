"""``run_session`` — the one entry point every simulation consumer uses.

The CLI, the benchmark registry, the reference RTL estimator, the
characterization runtime, the macro-model fast path and the profilers all
used to construct :class:`~repro.xtcore.Simulator` by hand, each with its
own argument spelling.  ``run_session`` is the single seam: budgets,
trace policy and observer registration are configured here, and fault
harnesses (:meth:`repro.testing.faults.FaultPlan.wrap_session`) wrap this
signature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from ..xtcore import ProcessorConfig, SimulationResult
    from .protocol import SimObserver

from ..xtcore.config import DEFAULT_MAX_INSTRUCTIONS

#: The injectable session seam: ``(config, program, *, observers,
#: collect_trace, max_instructions, entry) -> SimulationResult``.  All
#: options are keyword-only, so wrappers stay signature-compatible as the
#: session API grows.
SessionFn = Callable[..., "SimulationResult"]


def run_session(
    config: "ProcessorConfig",
    program: "Program",
    *,
    observers: Sequence["SimObserver"] = (),
    collect_trace: bool = False,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    entry: Optional[int] = None,
) -> "SimulationResult":
    """Simulate ``program`` on ``config``, streaming events to ``observers``.

    Aggregate statistics are always collected (``result.stats``); the full
    trace is materialized only with ``collect_trace=True`` — streaming
    consumers should register an observer instead and leave the trace
    off, which keeps per-run memory independent of instruction count.

    The program is lowered through the process-wide compilation cache
    (:func:`repro.xtcore.compilation_cache`), so repeated sessions over
    the same ``(program, config)`` content share one compiled form.

    The run dispatches through fused superop regions when nothing needs
    per-retire visibility and through the instrumented per-op loop when a
    trace or a retire/event observer is registered — see
    ``docs/PERFORMANCE.md``.
    """
    # Imported lazily: the simulator itself subscribes its bundled
    # observers from this package, so a module-level import would cycle.
    from ..xtcore.iss import Simulator

    return Simulator(
        config,
        program,
        collect_trace=collect_trace,
        max_instructions=max_instructions,
        observers=observers,
    ).run(entry=entry)
