"""Execution statistics and trace records — the bundled observers' output.

Two consumers with very different appetites read simulation output:

* the **macro-model path** needs only aggregate statistics — class cycle
  counts, event counts, per-custom-instruction execution counts.  These
  live in :class:`ExecutionStats` and are always collected (cheap).
* the **reference RTL estimator** needs the dynamic execution stream with
  operand values, to compute data-dependent switching activity.  It
  consumes the stream online, one retire event at a time (see
  :class:`repro.rtl.estimator.RtlEnergyObserver`), mirroring how RTL
  simulation is the slow, detailed path in the paper.  A
  :class:`TraceRecord` is one such event, kept: the
  :class:`~repro.obs.bundled.TraceObserver` materializes a run's list.

These types are defined here (not in :mod:`repro.xtcore`) so the observer
package has no import-time dependency on the simulator; ``repro.xtcore``
re-exports them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..isa import InstructionClass
from ..isa.classes import BASE_ENERGY_CLASSES


@dataclasses.dataclass
class ExecutionStats:
    """Aggregate dynamic statistics of one program run.

    The fields marked (MM) feed macro-model variables directly.
    """

    #: (MM) cycles attributed to each of the six base energy classes
    class_cycles: dict[InstructionClass, int] = dataclasses.field(
        default_factory=lambda: {c: 0 for c in BASE_ENERGY_CLASSES}
    )
    #: dynamic instruction counts per class (diagnostics, not MM variables)
    class_counts: dict[InstructionClass, int] = dataclasses.field(
        default_factory=lambda: {c: 0 for c in BASE_ENERGY_CLASSES}
    )
    #: (MM) N_cm — instruction-cache misses
    icache_misses: int = 0
    #: (MM) N_dm — data-cache misses
    dcache_misses: int = 0
    #: (MM) N_uf — uncached instruction fetches
    uncached_fetches: int = 0
    #: (MM) N_il — pipeline interlocks
    interlocks: int = 0
    #: (MM) N_sd — cycles of custom instructions that access the GPR file
    custom_gpr_cycles: int = 0
    #: cycles spent executing custom instructions, per mnemonic
    custom_cycles: dict[str, int] = dataclasses.field(default_factory=dict)
    #: (feeds structural variables) executions per custom mnemonic
    custom_counts: dict[str, int] = dataclasses.field(default_factory=dict)
    #: cycles in which the shared operand buses are driven by *base*
    #: instructions (spurious custom-hardware activation source)
    base_bus_cycles: int = 0
    #: dynamic instruction count per mnemonic (diagnostics/coverage)
    mnemonic_counts: dict[str, int] = dataclasses.field(default_factory=dict)
    total_instructions: int = 0
    total_cycles: int = 0
    #: cycles attributed to the SYSTEM class (nop/halt — tiny)
    system_cycles: int = 0

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Return element-wise sum of two stats (e.g. multi-run workloads)."""
        merged = ExecutionStats()
        for cls in BASE_ENERGY_CLASSES:
            merged.class_cycles[cls] = self.class_cycles[cls] + other.class_cycles[cls]
            merged.class_counts[cls] = self.class_counts[cls] + other.class_counts[cls]
        for field in (
            "icache_misses",
            "dcache_misses",
            "uncached_fetches",
            "interlocks",
            "custom_gpr_cycles",
            "base_bus_cycles",
            "total_instructions",
            "total_cycles",
            "system_cycles",
        ):
            setattr(merged, field, getattr(self, field) + getattr(other, field))
        for source in (self, other):
            for key, value in source.custom_cycles.items():
                merged.custom_cycles[key] = merged.custom_cycles.get(key, 0) + value
            for key, value in source.custom_counts.items():
                merged.custom_counts[key] = merged.custom_counts.get(key, 0) + value
            for key, value in source.mnemonic_counts.items():
                merged.mnemonic_counts[key] = merged.mnemonic_counts.get(key, 0) + value
        return merged

    @property
    def base_class_cycle_total(self) -> int:
        return sum(self.class_cycles.values())

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"instructions: {self.total_instructions}, cycles: {self.total_cycles}",
            "class cycles: "
            + ", ".join(f"{c.value}={self.class_cycles[c]}" for c in BASE_ENERGY_CLASSES),
            f"events: icache_miss={self.icache_misses} dcache_miss={self.dcache_misses} "
            f"uncached_fetch={self.uncached_fetches} interlock={self.interlocks}",
            f"custom: gpr_cycles={self.custom_gpr_cycles} counts={self.custom_counts}",
        ]
        return "\n".join(lines)


class TraceRecord:
    """One executed instruction, with the detail the RTL estimator needs."""

    __slots__ = (
        "addr",
        "mnemonic",
        "iclass",
        "cycles",
        "operands",
        "result",
        "icache_miss",
        "dcache_miss",
        "uncached_fetch",
        "interlock",
        "mem_addr",
    )

    def __init__(
        self,
        addr: int,
        mnemonic: str,
        iclass: InstructionClass,
        cycles: int,
        operands: tuple[int, ...],
        result: int,
        icache_miss: bool = False,
        dcache_miss: bool = False,
        uncached_fetch: bool = False,
        interlock: bool = False,
        mem_addr: Optional[int] = None,
    ) -> None:
        self.addr = addr
        self.mnemonic = mnemonic
        self.iclass = iclass
        self.cycles = cycles
        self.operands = operands
        self.result = result
        self.icache_miss = icache_miss
        self.dcache_miss = dcache_miss
        self.uncached_fetch = uncached_fetch
        self.interlock = interlock
        self.mem_addr = mem_addr

    def __repr__(self) -> str:
        flags = "".join(
            flag
            for flag, present in (
                ("I", self.icache_miss),
                ("D", self.dcache_miss),
                ("U", self.uncached_fetch),
                ("L", self.interlock),
            )
            if present
        )
        return (
            f"TraceRecord({self.addr:#08x} {self.mnemonic} [{self.iclass.value}] "
            f"{self.cycles}cyc{' ' + flags if flags else ''})"
        )


def class_mix(stats: ExecutionStats) -> dict[str, float]:
    """Fraction of base-class cycles per class (diagnostic for coverage)."""
    total = stats.base_class_cycle_total
    if total == 0:
        return {c.value: 0.0 for c in BASE_ENERGY_CLASSES}
    return {c.value: stats.class_cycles[c] / total for c in BASE_ENERGY_CLASSES}
