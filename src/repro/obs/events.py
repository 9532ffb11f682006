"""The per-instruction event the simulator streams to observers.

One :class:`RetireEvent` instance is allocated per run and **reused for
every retired instruction** — that is what makes the streaming path O(1)
in trace memory.  Observers that need to retain an instruction beyond the
callback must copy it (:meth:`RetireEvent.to_record` produces the
persistent :class:`~repro.obs.records.TraceRecord` form); observers that
consume values immediately (stats accumulation, online switching
activity) pay no allocation at all.

The field layout deliberately matches :class:`TraceRecord`, so code
written against trace records (the reference RTL estimator's activity
accumulator) accepts either interchangeably.  ``issue_cycles`` is the
one addition: the event carries the penalty-free issue cycles directly
instead of making every consumer re-derive them from the processor's
timing configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .records import TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..isa import InstructionClass


class RetireEvent:
    """One retired instruction, streamed to ``on_retire`` observers.

    ``iclass`` is the *resolved* energy class (branches appear as
    ``BRANCH_TAKEN``/``BRANCH_UNTAKEN``).  ``result`` is the value written
    to the first destination register — populated only when a registered
    observer declares ``needs_result`` (reading it back costs a register
    access per instruction), ``0`` otherwise.
    """

    __slots__ = (
        "addr",
        "mnemonic",
        "iclass",
        "cycles",
        "issue_cycles",
        "operands",
        "result",
        "icache_miss",
        "dcache_miss",
        "uncached_fetch",
        "interlock",
        "mem_addr",
    )

    def __init__(self) -> None:
        self.addr = 0
        self.mnemonic = ""
        self.iclass: Optional["InstructionClass"] = None
        self.cycles = 0
        self.issue_cycles = 0
        self.operands: tuple[int, ...] = ()
        self.result = 0
        self.icache_miss = False
        self.dcache_miss = False
        self.uncached_fetch = False
        self.interlock = False
        self.mem_addr: Optional[int] = None

    def to_record(self) -> TraceRecord:
        """Persistent copy of this event (the materialized-trace form)."""
        return TraceRecord(
            addr=self.addr,
            mnemonic=self.mnemonic,
            iclass=self.iclass,
            cycles=self.cycles,
            operands=self.operands,
            result=self.result,
            icache_miss=self.icache_miss,
            dcache_miss=self.dcache_miss,
            uncached_fetch=self.uncached_fetch,
            interlock=self.interlock,
            mem_addr=self.mem_addr,
        )

    def __repr__(self) -> str:
        return (
            f"RetireEvent({self.addr:#08x} {self.mnemonic} "
            f"[{self.iclass.value if self.iclass else '?'}] {self.cycles}cyc)"
        )
