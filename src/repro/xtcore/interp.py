"""The reference interpreter (pre-compilation dispatch loop).

This is the seed `Simulator` loop, kept as :class:`ReferenceSimulator`:
it re-resolves semantics, source/dest registers and the class/latency
decision per retired instruction, and re-decodes the program on every
construction.  It is an oracle only, with two jobs:

* the **differential test harness** asserts that both dispatch loops in
  :mod:`repro.xtcore.iss` (superop and instrumented) produce
  bitwise-identical stats, final machine state and — through a
  :class:`~repro.obs.bundled.TraceObserver` on both sides — traces
  against this loop on generated and bundled programs;
* the **throughput benchmark** (`benchmarks/bench_iss_throughput.py`)
  measures the compiled loops' speedup against it.

No production call path uses it: ``run_session``, the CLI and discovery
all dispatch through :class:`repro.xtcore.iss.Simulator`.  Tests and
benchmarks construct it directly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..asm import Program
from ..isa import INSTRUCTION_BYTES, InstructionClass, MachineState
from ..isa.bits import truncate
from ..isa.instructions import Instruction, InstructionDef
from ..obs.bundled import StatsObserver
from ..obs.events import RetireEvent
from ..obs.protocol import SimObserver
from .caches import SetAssociativeCache
from .config import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig
from .errors import SimulationError, SimulationLimitExceeded
from .iss import DEFAULT_STACK_TOP, EXIT_ADDRESS, SimulationResult


class ReferenceSimulator:
    """The pre-refactor interpreter loop, unchanged (oracle + baseline)."""

    def __init__(
        self,
        config: ProcessorConfig,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        observers: Sequence[SimObserver] = (),
    ) -> None:
        self.config = config
        self.program = program
        self.max_instructions = max_instructions
        self.observers = tuple(observers)
        isa = config.isa
        # Pre-decode: (instruction, definition, uncached?) per address.
        self._decoded: dict[int, tuple[Instruction, InstructionDef, bool]] = {}
        for addr, ins in program.instructions.items():
            try:
                definition = isa.lookup(ins.mnemonic)
            except KeyError as exc:
                raise SimulationError(
                    f"{program.name}: instruction {ins.mnemonic!r} at {addr:#x} "
                    f"is not in processor {config.name}'s ISA"
                ) from exc
            self._decoded[addr] = (ins, definition, program.is_uncached(addr))

    def _reset(self) -> MachineState:
        state = MachineState(self.config.num_registers)
        for addr, blob in self.program.data:
            state.memory.write_bytes(addr, blob)
        state.tie_state.update(self.config.state_inits)
        state.set(0, EXIT_ADDRESS)  # link register sentinel
        state.set(1, DEFAULT_STACK_TOP)
        state.pc = self.program.entry
        return state

    def run(self) -> SimulationResult:
        """Simulate from the program entry to completion."""
        state = self._reset()
        stats_observer = StatsObserver()
        chain: list[SimObserver] = [stats_observer, *self.observers]
        for observer in chain:
            observer.on_run_start(self.config, self.program)
        # Prefilter per granularity once, so unused callbacks cost nothing
        # in the hot loop.
        retire_observers = [o for o in chain if o.wants_retire]
        event_observers = [o for o in chain if o.wants_events]
        need_result = any(o.needs_result for o in retire_observers)
        event = RetireEvent()  # reused every instruction (observers copy)

        stats = stats_observer.stats
        icache = SetAssociativeCache(self.config.icache, "icache")
        dcache = SetAssociativeCache(self.config.dcache, "dcache")
        timing = self.config.timing
        decoded = self._decoded

        prev_load_dests: tuple[int, ...] = ()
        executed = 0

        while not state.halted:
            pc = state.pc
            if pc == EXIT_ADDRESS:
                break
            entry_tuple = decoded.get(pc)
            if entry_tuple is None:
                raise SimulationError(
                    f"{self.program.name}: pc={pc:#010x} is not a valid instruction address"
                )
            ins, definition, uncached = entry_tuple

            if executed >= self.max_instructions:
                raise SimulationLimitExceeded(
                    f"{self.program.name}: exceeded {self.max_instructions} instructions"
                )
            executed += 1

            # ---- fetch ---------------------------------------------------
            cycles = 0
            icache_miss = False
            if uncached:
                cycles += timing.uncached_fetch_penalty
                if event_observers:
                    for observer in event_observers:
                        observer.on_uncached_fetch(pc)
            elif not icache.access(pc):
                icache_miss = True
                cycles += self.config.icache.miss_penalty
                if event_observers:
                    for observer in event_observers:
                        observer.on_icache_miss(pc)

            # ---- decode / hazard detection -------------------------------
            sources = definition.source_registers(ins)
            interlock = bool(prev_load_dests) and any(
                src in prev_load_dests for src in sources
            )
            if interlock:
                cycles += timing.interlock_stall
                if event_observers:
                    for observer in event_observers:
                        observer.on_interlock(pc)

            operands = tuple(state.get(src) for src in sources)

            # ---- execute --------------------------------------------------
            next_pc = definition.semantics(state, ins)

            # ---- memory timing -------------------------------------------
            dcache_miss = False
            mem_addr: Optional[int] = None
            iclass = definition.iclass
            if iclass in (InstructionClass.LOAD, InstructionClass.STORE):
                mem_addr = truncate(operands[0] + (ins.imm or 0))
                if not dcache.access(mem_addr):
                    dcache_miss = True
                    cycles += self.config.dcache.miss_penalty
                    if event_observers:
                        for observer in event_observers:
                            observer.on_dcache_miss(mem_addr)

            # ---- cycle attribution ----------------------------------------
            if iclass is InstructionClass.BRANCH:
                taken = next_pc is not None
                resolved = (
                    InstructionClass.BRANCH_TAKEN if taken else InstructionClass.BRANCH_UNTAKEN
                )
                issue_cycles = definition.latency + (timing.branch_taken_penalty if taken else 0)
            elif iclass is InstructionClass.JUMP:
                resolved = iclass
                issue_cycles = definition.latency + timing.branch_taken_penalty
            else:  # ARITH, LOAD, STORE, CUSTOM, SYSTEM
                resolved = iclass
                issue_cycles = definition.latency

            cycles += issue_cycles

            # ---- retire: fan the event out to the observer chain ----------
            event.addr = pc
            event.mnemonic = ins.mnemonic
            event.iclass = resolved
            event.cycles = cycles
            event.issue_cycles = issue_cycles
            event.operands = operands
            if need_result:
                dests = definition.dest_registers(ins)
                event.result = state.get(dests[0]) if dests else 0
            else:
                event.result = 0
            event.icache_miss = icache_miss
            event.dcache_miss = dcache_miss
            event.uncached_fetch = uncached
            event.interlock = interlock
            event.mem_addr = mem_addr
            for observer in retire_observers:
                observer.on_retire(event)

            # ---- hazard bookkeeping / next pc -----------------------------
            prev_load_dests = (
                definition.dest_registers(ins)
                if iclass is InstructionClass.LOAD
                else ()
            )
            state.pc = next_pc if next_pc is not None else pc + INSTRUCTION_BYTES

        result = SimulationResult(
            program=self.program,
            config=self.config,
            stats=stats,
            state=state,
            engine="reference",
        )
        for observer in chain:
            observer.on_run_finish(result)
        return result
