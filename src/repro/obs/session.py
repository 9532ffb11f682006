"""``run_session`` — the one entry point every simulation consumer uses.

The CLI, the benchmark registry, the reference RTL estimator, the
characterization runtime, the macro-model fast path and the profilers all
simulate through this one seam: budgets and observer registration are
configured here, and fault harnesses
(:meth:`repro.testing.faults.FaultPlan.wrap_session`) wrap this
signature.  Anything a run must report per retired instruction — a
trace, switching activity, a profile — is an observer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from ..xtcore import ProcessorConfig, SimulationResult
    from .protocol import SimObserver

from ..xtcore.config import DEFAULT_MAX_INSTRUCTIONS

#: The injectable session seam: ``(config, program, *, observers,
#: max_instructions) -> SimulationResult``.  All options are
#: keyword-only, so wrappers stay signature-compatible as the session API
#: grows.
SessionFn = Callable[..., "SimulationResult"]


def run_session(
    config: "ProcessorConfig",
    program: "Program",
    *,
    observers: Sequence["SimObserver"] = (),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> "SimulationResult":
    """Simulate ``program`` on ``config``, streaming events to ``observers``.

    Aggregate statistics are always collected (``result.stats``).
    Per-retire data comes only from ``observers``: pass a
    :class:`~repro.obs.bundled.TraceObserver` and read its ``records``
    for the full trace, or a streaming observer whose memory does not
    grow with instruction count.

    The program is lowered through the process-wide compilation cache
    (:func:`repro.xtcore.compilation_cache`), so repeated sessions over
    the same ``(program, config)`` content share one compiled form.

    The run dispatches through fused superop regions when nothing needs
    per-retire visibility and through the instrumented per-op loop when a
    retire/event observer is registered — see ``docs/PERFORMANCE.md``.
    """
    # Imported lazily: the simulator imports this package's event and
    # record types, so a module-level import would cycle.
    from ..xtcore.iss import Simulator

    return Simulator(
        config,
        program,
        max_instructions=max_instructions,
        observers=observers,
    ).run()
