"""The streaming observer protocol of the instruction-set simulator.

Everything a run reports per retired instruction is a
:class:`SimObserver` subscriber of one event stream: trace
materialization, online switching-activity accumulation for the
reference RTL estimator, energy timelines, hot-spot histograms, cache
trackers, metrics export.  Each plugs into the same seam without
touching the simulator loop.

Callback contract, in firing order for one run:

``on_run_start(config, program)``
    Once, before the first instruction.  Raise here to veto the run
    (e.g. a config/netlist fingerprint mismatch).
``on_icache_miss / on_dcache_miss / on_uncached_fetch / on_interlock``
    Fine-grained micro-architectural events, fired *during* the
    instruction that incurs them, before its retire event.  Delivered
    only to observers with ``wants_events = True``.
``on_retire(event)``
    Once per retired instruction, with the shared, **reused**
    :class:`~repro.obs.events.RetireEvent` (copy what you keep).  The
    event's flag fields mirror the fine-grained callbacks, so an
    observer should subscribe to one granularity, not both, unless it
    deliberately wants the duplication.  Delivered only to observers
    with ``wants_retire = True`` (the default).
``on_run_finish(result)``
    Once, after the run completes normally, with the final
    :class:`~repro.xtcore.SimulationResult`.  Not called when the run
    raises (a failed run has no result to observe).

Class-attribute flags keep the hot loop cheap: the simulator prefilters
its observer lists once per run, so an unused granularity costs nothing.
``needs_result`` asks the simulator to populate ``event.result`` (one
extra register read per instruction); leave it ``False`` unless the
observer actually reads destination values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from ..xtcore import ProcessorConfig, SimulationResult
    from .events import RetireEvent


class SimObserver:
    """Base class for simulation-event subscribers (all callbacks no-op)."""

    #: receive :meth:`on_retire` for every retired instruction
    wants_retire: bool = True
    #: receive the fine-grained cache/fetch/interlock callbacks
    wants_events: bool = False
    #: populate ``event.result`` (costs a register read per instruction)
    needs_result: bool = False

    def on_run_start(self, config: "ProcessorConfig", program: "Program") -> None:
        """The run is about to execute its first instruction."""

    def on_retire(self, event: "RetireEvent") -> None:
        """One instruction retired (``event`` is reused — copy to keep)."""

    def on_icache_miss(self, addr: int) -> None:
        """Instruction fetch at ``addr`` missed the I-cache."""

    def on_dcache_miss(self, addr: int) -> None:
        """Load/store to ``addr`` missed the D-cache."""

    def on_uncached_fetch(self, addr: int) -> None:
        """Instruction fetch at ``addr`` hit an uncached region."""

    def on_interlock(self, addr: int) -> None:
        """The instruction at ``addr`` stalled on a load-use dependence."""

    def on_run_finish(self, result: "SimulationResult") -> None:
        """The run completed normally."""
