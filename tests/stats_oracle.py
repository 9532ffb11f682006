"""Independent stats fold over trace records, the oracle for region sums.

The product folds retire events through ``repro.obs.bundled.apply_event``
(``RegionStatsObserver``, the timeline) and per-op counters through the
dispatch aggregation.  This fold works from persisted
:class:`~repro.xtcore.TraceRecord` objects instead, re-deriving issue
cycles from the processor's penalties, so the profiler tests can check
the product's partitions against a second implementation.
"""

from __future__ import annotations

from typing import Sequence

from repro.isa import InstructionClass
from repro.isa.classes import BASE_ENERGY_CLASSES
from repro.xtcore import ExecutionStats, ProcessorConfig, TraceRecord


def _record_issue_cycles(record: TraceRecord, config: ProcessorConfig) -> int:
    """Strip penalty cycles off a trace record, leaving issue cycles."""
    penalties = 0
    if record.icache_miss:
        penalties += config.icache.miss_penalty
    if record.dcache_miss:
        penalties += config.dcache.miss_penalty
    if record.uncached_fetch:
        penalties += config.timing.uncached_fetch_penalty
    if record.interlock:
        penalties += config.timing.interlock_stall
    return record.cycles - penalties


def stats_from_records(
    records: Sequence[TraceRecord], config: ProcessorConfig
) -> ExecutionStats:
    """Rebuild :class:`ExecutionStats` from a subset of trace records.

    This is the inverse of trace collection for a *partition* of a run:
    summing the stats of a partition's parts reproduces the whole run's
    stats (tested property), which is what makes exact energy attribution
    possible.
    """
    stats = ExecutionStats()
    extensions = config.extension_index
    for record in records:
        issue = _record_issue_cycles(record, config)
        iclass = record.iclass
        if iclass in BASE_ENERGY_CLASSES:
            stats.class_cycles[iclass] += issue
            stats.class_counts[iclass] += 1
        elif iclass is InstructionClass.CUSTOM:
            stats.custom_cycles[record.mnemonic] = (
                stats.custom_cycles.get(record.mnemonic, 0) + issue
            )
            stats.custom_counts[record.mnemonic] = (
                stats.custom_counts.get(record.mnemonic, 0) + 1
            )
            impl = extensions.get(record.mnemonic)
            if impl is not None and impl.accesses_gpr:
                stats.custom_gpr_cycles += issue
        else:  # SYSTEM
            stats.system_cycles += issue
        if record.icache_miss:
            stats.icache_misses += 1
        if record.dcache_miss:
            stats.dcache_misses += 1
        if record.uncached_fetch:
            stats.uncached_fetches += 1
        if record.interlock:
            stats.interlocks += 1
        if iclass is not InstructionClass.CUSTOM and record.operands:
            stats.base_bus_cycles += issue
        stats.total_cycles += record.cycles
        stats.total_instructions += 1
        stats.mnemonic_counts[record.mnemonic] = (
            stats.mnemonic_counts.get(record.mnemonic, 0) + 1
        )
    return stats
