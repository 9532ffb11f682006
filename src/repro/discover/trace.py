"""Dynamic dataflow tracing: the profile half of the discovery loop.

:class:`DataflowTraceObserver` subscribes to the ``repro.obs`` retire
stream and records, per static basic block, (a) how many times the block
executed and (b) the def-use edges actually exercised between its
instructions — the producer/consumer register chains the miner grows
candidates along.  Block structure and liveness come from the static
:class:`~repro.discover.dfg.ProgramDfg` built at run start; the dynamic
pass contributes execution counts, which turn the miner's cycle-savings
arithmetic into real profile-weighted speedups (the role of
``HotSpotObserver`` in the paper's flow, at basic-block rather than
symbol granularity).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..obs.protocol import SimObserver
from .dfg import ProgramDfg, reads, writes

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from ..obs.events import RetireEvent
    from ..xtcore import ProcessorConfig, SimulationResult


class ObserverStateError(RuntimeError):
    """A report was requested before the observed run finished."""


@dataclasses.dataclass(frozen=True)
class DefUseEdge:
    """Register ``reg`` flows from the def at ``producer`` to the use at
    ``consumer`` (both instruction addresses within one block)."""

    producer: int
    consumer: int
    reg: int


@dataclasses.dataclass(frozen=True)
class BlockTrace:
    """One executed basic block with its dynamic def-use profile."""

    start: int
    addrs: tuple[int, ...]
    count: int
    edges: frozenset[DefUseEdge]

    @property
    def dynamic_instructions(self) -> int:
        return self.count * len(self.addrs)


@dataclasses.dataclass(frozen=True)
class DataflowReport:
    """Profile summary: executed blocks (hottest first) + the static DFG."""

    blocks: tuple[BlockTrace, ...]
    total_instructions: int
    dfg: ProgramDfg

    def hot_blocks(self, min_coverage: float = 0.0) -> tuple[BlockTrace, ...]:
        """Blocks whose dynamic instruction share is >= ``min_coverage``."""
        if self.total_instructions == 0:
            return ()
        return tuple(
            b
            for b in self.blocks
            if b.dynamic_instructions / self.total_instructions >= min_coverage
        )


class DataflowTraceObserver(SimObserver):
    """Record per-block execution counts and dynamic def-use chains.

    Register with :func:`repro.obs.run_session` (it takes the
    instrumented per-op loop, since this observer wants retires); read
    :attr:`report` after the run.
    """

    wants_retire = True

    def __init__(self) -> None:
        self._report: Optional[DataflowReport] = None
        self._dfg: Optional[ProgramDfg] = None
        self._isa = None
        self._program: Optional["Program"] = None
        self._block_counts: dict[int, int] = {}
        self._edges: dict[int, set[DefUseEdge]] = {}
        self._last_writer: dict[int, int] = {}
        self._current_block: Optional[int] = None
        self._total = 0

    def on_run_start(self, config: "ProcessorConfig", program: "Program") -> None:
        self._report = None
        self._isa = config.isa
        self._program = program
        self._dfg = ProgramDfg(program, config.isa)
        self._block_counts = {}
        self._edges = {}
        self._last_writer = {}
        self._current_block = None
        self._total = 0

    def on_retire(self, event: "RetireEvent") -> None:
        assert self._dfg is not None and self._program is not None
        addr = event.addr
        block = self._dfg.block_of(addr)
        if addr == block.start or block.start != self._current_block:
            # Entered the block (at its leader, or mid-block via a
            # mispredicted model change — defensively reset the chains).
            self._current_block = block.start
            self._last_writer = {}
            if addr == block.start:
                self._block_counts[block.start] = self._block_counts.get(block.start, 0) + 1
        ins = self._program.instructions[addr]
        definition = self._isa.lookup(ins.mnemonic)  # type: ignore[union-attr]
        edges = self._edges.setdefault(block.start, set())
        for reg in reads(definition, ins):
            producer = self._last_writer.get(reg)
            if producer is not None:
                edges.add(DefUseEdge(producer=producer, consumer=addr, reg=reg))
        for reg in writes(definition, ins):
            self._last_writer[reg] = addr
        self._total += 1

    def on_run_finish(self, result: "SimulationResult") -> None:
        assert self._dfg is not None
        blocks = [
            BlockTrace(
                start=start,
                addrs=tuple(self._dfg.blocks[start].addrs),
                count=count,
                edges=frozenset(self._edges.get(start, set())),
            )
            for start, count in self._block_counts.items()
        ]
        blocks.sort(key=lambda b: (-b.dynamic_instructions, b.start))
        self._report = DataflowReport(
            blocks=tuple(blocks), total_instructions=self._total, dfg=self._dfg
        )

    @property
    def report(self) -> DataflowReport:
        if self._report is None:
            raise ObserverStateError(
                "DataflowTraceObserver has no report yet; register it with "
                "run_session() and read .report after the run finishes"
            )
        return self._report
