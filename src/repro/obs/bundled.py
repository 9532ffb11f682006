"""The two bundled observers: aggregate statistics and the full trace.

:class:`StatsObserver` accumulates :class:`~repro.obs.records.ExecutionStats`
per retire (the reference interpreter's stats; the compiled simulator
folds the same rule per op at run end) and :class:`TraceObserver`
materializes :class:`~repro.obs.records.TraceRecord` lists.  A caller
that wants a trace passes a ``TraceObserver`` in ``run_session``'s
``observers`` and reads its ``records`` after the run.

:func:`apply_event` is the single source of truth for folding one retire
event into an ``ExecutionStats``; the interval/region profilers reuse it
so their per-bucket stats stay field-for-field consistent with the
whole-run stats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..isa import InstructionClass
from .events import RetireEvent
from .protocol import SimObserver
from .records import ExecutionStats, TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from ..xtcore import ProcessorConfig


def gpr_accessing_mnemonics(config: "ProcessorConfig") -> frozenset:
    """The custom mnemonics whose hardware reads/writes the GPR file."""
    return frozenset(
        mnemonic
        for mnemonic, impl in config.extension_index.items()
        if impl.accesses_gpr
    )


def apply_event(
    stats: ExecutionStats, event: RetireEvent, gpr_mnemonics: frozenset
) -> None:
    """Fold one retire event into ``stats`` (shared accumulation rule)."""
    iclass = event.iclass
    issue = event.issue_cycles
    mnemonic = event.mnemonic
    if iclass is InstructionClass.CUSTOM:
        stats.custom_cycles[mnemonic] = stats.custom_cycles.get(mnemonic, 0) + issue
        stats.custom_counts[mnemonic] = stats.custom_counts.get(mnemonic, 0) + 1
        if mnemonic in gpr_mnemonics:
            stats.custom_gpr_cycles += issue
    elif iclass in stats.class_cycles:
        stats.class_cycles[iclass] += issue
        stats.class_counts[iclass] += 1
    else:  # SYSTEM
        stats.system_cycles += issue
    if event.icache_miss:
        stats.icache_misses += 1
    if event.dcache_miss:
        stats.dcache_misses += 1
    if event.uncached_fetch:
        stats.uncached_fetches += 1
    if event.interlock:
        stats.interlocks += 1
    if iclass is not InstructionClass.CUSTOM and event.operands:
        stats.base_bus_cycles += issue
    stats.total_cycles += event.cycles
    stats.total_instructions += 1
    stats.mnemonic_counts[mnemonic] = stats.mnemonic_counts.get(mnemonic, 0) + 1


class StatsObserver(SimObserver):
    """Accumulates the aggregate :class:`ExecutionStats` of one run."""

    wants_retire = True

    def __init__(self) -> None:
        self.stats = ExecutionStats()
        self._gpr_mnemonics: frozenset = frozenset()

    def on_run_start(self, config: "ProcessorConfig", program: "Program") -> None:
        self.stats = ExecutionStats()
        self._gpr_mnemonics = gpr_accessing_mnemonics(config)

    def on_retire(self, event: RetireEvent) -> None:
        apply_event(self.stats, event, self._gpr_mnemonics)


class TraceObserver(SimObserver):
    """Materializes the full execution trace (the O(trace)-memory path)."""

    wants_retire = True
    needs_result = True

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def on_run_start(self, config: "ProcessorConfig", program: "Program") -> None:
        self.records = []

    def on_retire(self, event: RetireEvent) -> None:
        self.records.append(event.to_record())
