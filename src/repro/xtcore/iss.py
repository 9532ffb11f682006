"""Cycle-approximate instruction-set simulation: the dispatch engine.

This is the fast path of the paper's methodology (steps 6 and 9 of its
flow): instruction-set simulation gathers execution statistics — class
cycle counts, cache misses, uncached fetches, interlocks, custom
instruction counts — in one pass, without any structural hardware model.

The timing model is a five-stage in-order pipeline abstraction:

* every instruction occupies its definition latency in issue cycles;
* taken branches and jumps pay a pipeline-flush penalty, attributed to
  their class cycles (the paper's branch-taken class has a per-cycle
  coefficient covering this);
* a load-use dependence stalls the pipeline (the ``N_il`` interlock
  event);
* instruction fetches hit the I-cache, pay a miss penalty, or pay the
  uncached-fetch penalty when the address lies in an uncached region;
* loads and stores access the D-cache and pay miss penalties.

Execution is a three-stage **compile → link → dispatch** pipeline: the
program is lowered once against the processor config into an
:class:`~repro.xtcore.compiled.ExecutableProgram` (memoized across runs
by the :func:`~repro.xtcore.compiled.compilation_cache`), and
:meth:`Simulator.run` dispatches over that IR through one of two loops,
picked by what the run must report:

* the **instrumented loop** runs whenever a trace is requested or an
  observer wants per-retire callbacks: it populates one reused
  :class:`~repro.obs.events.RetireEvent` per instruction and fans it out
  to the :class:`~repro.obs.protocol.SimObserver` chain, exactly as the
  streaming protocol documents;
* the **superop loop** (:func:`dispatch`) runs when there is nothing to
  observe per instruction (the estimate/DSE common case): fused basic
  blocks plus a per-op path for block boundaries — no event objects, no
  operand tuples, no callback dispatch.  Batched multi-config runs
  (:func:`repro.xtcore.batch.run_batch`) record their trajectory through
  the same loop.

Both loops fold statistics the same way — per-op retire/taken counts and
scalar event counters, aggregated into :class:`ExecutionStats` at run
end — so their stats are identical by construction, and the differential
suite pins both against the reference interpreter
(:mod:`repro.xtcore.interp`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from ..asm import Program
from ..isa import INSTRUCTION_BYTES, MachineState
from ..isa.classes import InstructionClass
from ..obs.bundled import TraceObserver
from ..obs.events import RetireEvent
from ..obs.protocol import SimObserver
from .caches import SetAssociativeCache
from .compiled import (
    ExecutableProgram,
    SuperopProgram,
    compilation_cache,
    describe_invalid_pc,
    fuse_block,
)
from .config import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig
from .errors import SimulationError, SimulationLimitExceeded
from .trace import ExecutionStats, TraceRecord

#: Value planted in the link register at reset; returning to it halts the
#: simulation, so top-level routines may end with ``ret`` instead of ``halt``.
EXIT_ADDRESS = 0xFFFF_FFF0

#: Default stack-pointer value at reset (grows downward).
DEFAULT_STACK_TOP = 0x0007_FF00

_BRANCH_TAKEN = InstructionClass.BRANCH_TAKEN
_BRANCH_UNTAKEN = InstructionClass.BRANCH_UNTAKEN

__all__ = [
    "DEFAULT_MAX_INSTRUCTIONS",
    "DEFAULT_STACK_TOP",
    "EXIT_ADDRESS",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationResult",
    "Simulator",
    "simulate",
]


@dataclasses.dataclass
class SimulationResult:
    """Output of one simulated run."""

    program: Program
    config: ProcessorConfig
    stats: ExecutionStats
    state: MachineState
    trace: Optional[list[TraceRecord]] = None
    #: dispatch path that produced this result: "superop", "instrumented",
    #: "batch" or "reference" (the oracle interpreter).
    engine: Optional[str] = None

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def instructions(self) -> int:
        return self.stats.total_instructions

    @property
    def runtime_seconds(self) -> float:
        """Simulated wall-clock time at the configured core frequency."""
        return self.stats.total_cycles / (self.config.clock_mhz * 1e6)

    @property
    def cpi(self) -> float:
        """Cycles per instruction of the run (pipeline-quality metric)."""
        if self.stats.total_instructions == 0:
            return 0.0
        return self.stats.total_cycles / self.stats.total_instructions

    def performance_summary(self) -> str:
        """One-paragraph performance digest (CPI, stall/penalty shares)."""
        stats = self.stats
        cycles = stats.total_cycles or 1
        penalty_cycles = (
            stats.interlocks * self.config.timing.interlock_stall
            + stats.icache_misses * self.config.icache.miss_penalty
            + stats.dcache_misses * self.config.dcache.miss_penalty
            + stats.uncached_fetches * self.config.timing.uncached_fetch_penalty
        )
        return (
            f"{self.program.name} on {self.config.name}: "
            f"{stats.total_instructions} instructions in {stats.total_cycles} cycles "
            f"(CPI {self.cpi:.2f}, {100.0 * penalty_cycles / cycles:.1f}% in "
            f"stalls/miss penalties, {self.runtime_seconds * 1e6:.1f} us at "
            f"{self.config.clock_mhz:g} MHz)"
        )

    def word(self, symbol: str) -> int:
        """Read a 32-bit little-endian word at a program symbol (for checks)."""
        return self.state.memory.read(self.program.symbol(symbol), 4)

    def words(self, symbol: str, count: int) -> list[int]:
        base = self.program.symbol(symbol)
        return [self.state.memory.read(base + 4 * i, 4) for i in range(count)]


def _aggregate_stats(
    config: ProcessorConfig,
    executable: ExecutableProgram,
    counts: list[int],
    taken_counts: list[int],
    icache_misses: int,
    dcache_misses: int,
    interlocks: int,
) -> ExecutionStats:
    """Fold per-op retire counters into :class:`ExecutionStats`.

    Mathematically identical to applying :func:`repro.obs.bundled.apply_event`
    per retired instruction (the reference interpreter's folding rule), but
    O(static ops) instead of O(dynamic instructions): every retire of one
    micro-op contributes the same class, issue cycles and bus attribution,
    so the per-retire sums collapse to ``count x per-op values`` — with
    branches split by their taken count.  Both dispatch loops use this, so
    superop stats equal instrumented stats by construction.
    """
    stats = ExecutionStats()
    class_cycles = stats.class_cycles
    class_counts = stats.class_counts
    mnemonic_counts = stats.mnemonic_counts
    custom_cycles = stats.custom_cycles
    custom_counts = stats.custom_counts
    total_instructions = 0
    issue_total = 0
    base_bus = 0
    system = 0
    gpr_cycles = 0
    uncached_fetches = 0
    ops = executable.ops
    for index, count in enumerate(counts):
        if not count:
            continue
        op = ops[index]
        taken = taken_counts[index]
        untaken = count - taken
        issue = untaken * op[14] + taken * op[15]
        mnemonic = op[11]
        total_instructions += count
        issue_total += issue
        mnemonic_counts[mnemonic] = mnemonic_counts.get(mnemonic, 0) + count
        kind = op[17]
        if kind:  # custom instruction
            custom_cycles[mnemonic] = custom_cycles.get(mnemonic, 0) + issue
            custom_counts[mnemonic] = custom_counts.get(mnemonic, 0) + count
            if kind == 2:
                gpr_cycles += issue
        else:
            if op[7]:  # BRANCH: split by outcome
                if untaken:
                    class_cycles[_BRANCH_UNTAKEN] += untaken * op[14]
                    class_counts[_BRANCH_UNTAKEN] += untaken
                if taken:
                    class_cycles[_BRANCH_TAKEN] += taken * op[15]
                    class_counts[_BRANCH_TAKEN] += taken
            elif op[19]:  # one of the six base energy classes
                iclass = op[12]
                class_cycles[iclass] += issue
                class_counts[iclass] += count
            else:  # SYSTEM
                system += issue
            if op[18]:  # base op driving the shared operand buses
                base_bus += issue
        if not op[6]:
            uncached_fetches += count
    timing = config.timing
    stats.icache_misses = icache_misses
    stats.dcache_misses = dcache_misses
    stats.interlocks = interlocks
    stats.uncached_fetches = uncached_fetches
    stats.custom_gpr_cycles = gpr_cycles
    stats.base_bus_cycles = base_bus
    stats.system_cycles = system
    stats.total_instructions = total_instructions
    stats.total_cycles = (
        issue_total
        + interlocks * timing.interlock_stall
        + icache_misses * config.icache.miss_penalty
        + dcache_misses * config.dcache.miss_penalty
        + uncached_fetches * timing.uncached_fetch_penalty
    )
    return stats


def dispatch(
    executable: ExecutableProgram,
    state: MachineState,
    max_instructions: int,
    superops: Optional[SuperopProgram],
    ishift: int,
    dshift: int,
    icache_access: Callable[[int], Optional[bool]],
    dcache_access: Callable[[int], Optional[bool]],
) -> tuple[list[int], list[int], int, int, int]:
    """The un-instrumented dispatch loop: semantics plus retire counters.

    Runs ``executable`` from ``state.pc`` to completion and returns
    ``(counts, taken_counts, icache_misses, dcache_misses, interlocks)``
    for :func:`_aggregate_stats`.  With ``superops`` (the executable's
    block lowering) an op index heading a block retires the whole block
    in one fused dispatch from the block's second entry on: the first
    entry runs op by op, the second generates the fused closure
    (:func:`~repro.xtcore.compiled.fuse_block`) into the block's
    :attr:`~repro.xtcore.compiled.SuperopProgram.fused` slot.  Every
    other op, and any block that would cross the instruction budget,
    takes the per-op path; ``superops=None`` runs everything per-op.
    Fused blocks bake in their config's line shifts, so pass that
    config's.  ``icache_access``/``dcache_access`` see the
    first address of every same-line transition at ``ishift``/``dshift``
    granularity and report hits; a falsy return counts as a miss, so a
    recorder such as ``list.append`` captures the address streams (and
    its miss counts are meaningless).
    """
    ops = executable.ops
    pc_map = executable.pc_to_index
    if superops is None:
        block_at: Sequence[Optional[tuple]] = (None,) * len(ops)
        fused: list = []
    else:
        block_at = superops.block_at
        fused = superops.fused
    counts = [0] * len(ops)
    taken_counts = [0] * len(ops)
    block_counts = [0] * len(ops)  # keyed by the block's first op index
    interlocks = 0
    # Same-line memo + miss counters as two-slot lists so fused block
    # closures and the per-op path mutate one shared state.  A repeat
    # access to the line just touched is a guaranteed MRU hit with no
    # LRU movement, so the cache model call can be skipped.
    ic = [-1, 0]
    dc = [-1, 0]
    prev_load_dests: tuple[int, ...] = ()
    # Register reads skip the bounds check when compilation proved every
    # index in range (the out-of-range IndexError path is kept for
    # programs where it did not).
    state_get = state.regs.__getitem__ if executable.regs_in_range else state.get
    executed = 0
    mem_base = 0

    pc = state.pc
    if pc != EXIT_ADDRESS:
        idx = pc_map.get(pc, -1)
        if idx < 0:
            raise SimulationError(
                describe_invalid_pc(executable.program_name, pc, executable, None)
            )
        while True:
            block = block_at[idx]
            if block is not None and executed + block[2] <= max_instructions:
                fn = fused[idx]
                if fn is None:
                    # First entry: run the block op by op below; most
                    # blocks entered once are not worth generating code.
                    fused[idx] = False
                else:
                    if fn is False:  # second entry: fuse once, keep it
                        fn = fused[idx] = fuse_block(ops, block, dshift)
                    # Fused fast path: the whole block retires in one
                    # dispatch — semantics, I-line memo and D-cache
                    # replays inlined into one generated closure, and the
                    # remaining bookkeeping folded to block deltas.
                    executed += block[2]
                    if prev_load_dests:
                        for src in block[5]:
                            if src in prev_load_dests:
                                interlocks += 1
                                break
                    interlocks += block[6]
                    fn(state, ic, dc, icache_access, dcache_access)
                    block_counts[idx] += 1
                    prev_load_dests = block[7]
                    idx = block[8]
                    if idx >= 0:
                        continue
                    # Fell off the end of the mapped address range.
                    addr = block[9]
                    pc = (addr + INSTRUCTION_BYTES) & 0xFFFFFFFF
                    state.pc = pc
                    raise SimulationError(
                        describe_invalid_pc(
                            executable.program_name, pc, executable, addr
                        )
                    )
            # Per-op path: block boundaries (branches, jumps, system ops,
            # customs), a block's first entry, mid-block landings from
            # dynamic jumps, and blocks that would cross the instruction
            # budget (so SimulationLimitExceeded raises at the exact
            # instruction, after any earlier fault).
            if executed >= max_instructions:
                raise SimulationLimitExceeded(
                    f"{executable.program_name}: "
                    f"exceeded {max_instructions} instructions"
                )
            executed += 1
            op = ops[idx]
            addr = op[10]
            if op[6]:  # cached fetch
                line = addr >> ishift
                if line != ic[0]:
                    ic[0] = line
                    if not icache_access(addr):
                        ic[1] += 1
            if prev_load_dests:
                for src in op[2]:
                    if src in prev_load_dests:
                        interlocks += 1
                        break
            if op[5]:  # memory op: base register read precedes execution
                mem_base = state_get(op[3])
            state.pc = addr
            counts[idx] += 1
            next_pc = op[0](state, op[1])
            if op[5]:
                mem_addr = (mem_base + op[4]) & 0xFFFFFFFF
                line = mem_addr >> dshift
                if line != dc[0]:
                    dc[0] = line
                    if not dcache_access(mem_addr):
                        dc[1] += 1
            prev_load_dests = op[8]
            if next_pc is None:
                if state.halted:
                    state.pc = addr + INSTRUCTION_BYTES
                    break
                idx = op[9]
                if idx >= 0:
                    continue
                pc = addr + INSTRUCTION_BYTES
            else:
                taken_counts[idx] += 1
                if state.halted:
                    state.pc = next_pc
                    break
                if next_pc == EXIT_ADDRESS:
                    state.pc = EXIT_ADDRESS
                    break
                idx = pc_map.get(next_pc, -1)
                if idx >= 0:
                    continue
                pc = next_pc
            state.pc = pc
            raise SimulationError(
                describe_invalid_pc(executable.program_name, pc, executable, addr)
            )

    # Expand per-block execution counters into the per-op counts the
    # aggregation contract expects (O(static ops), like aggregation).
    for start, count in enumerate(block_counts):
        if count:
            for i in range(start, start + block_at[start][2]):
                counts[i] += count
    return counts, taken_counts, ic[1], dc[1], interlocks


class Simulator:
    """Executes one :class:`Program` on one :class:`ProcessorConfig`.

    Construction resolves the program against the process-wide
    :func:`~repro.xtcore.compiled.compilation_cache` (pass ``executable``
    to reuse a lowering compiled elsewhere, e.g. pre-fork in a worker
    pool).  ``observers`` registers extra
    :class:`~repro.obs.protocol.SimObserver` subscribers on every run.

    Each run picks its dispatch loop from what it must report: the
    instrumented per-op loop when a trace is requested or an observer
    wants per-retire callbacks (``wants_retire`` / ``wants_events``),
    the superop block loop (:func:`dispatch`) otherwise.  Stats are
    bitwise identical either way.  Most callers should go through
    :func:`repro.obs.run_session` instead of constructing a ``Simulator``
    directly.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        program: Program,
        collect_trace: bool = False,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        observers: Sequence[SimObserver] = (),
        executable: Optional[ExecutableProgram] = None,
    ) -> None:
        self.config = config
        self.program = program
        self.collect_trace = collect_trace
        self.max_instructions = max_instructions
        self.observers = tuple(observers)
        if executable is None:
            executable = compilation_cache().get_or_compile(config, program)
        elif (
            executable.program_digest != program.digest()
            or executable.config_fingerprint != config.fingerprint()
        ):
            raise SimulationError(
                f"executable {executable!r} was compiled for different content "
                f"than ({program.name}, {config.name})"
            )
        self.executable = executable
        self._superops: Optional[SuperopProgram] = None

    def _reset(self) -> MachineState:
        state = MachineState(self.config.num_registers)
        for addr, blob in self.program.data:
            state.memory.write_bytes(addr, blob)
        state.tie_state.update(self.config.state_inits)
        state.set(0, EXIT_ADDRESS)  # link register sentinel
        state.set(1, DEFAULT_STACK_TOP)
        state.pc = self.program.entry
        return state

    def run(self, entry: Optional[int] = None) -> SimulationResult:
        """Simulate from ``entry`` (default: program entry) to completion."""
        state = self._reset()
        if entry is not None:
            state.pc = entry
        if self.collect_trace or any(
            o.wants_retire or o.wants_events for o in self.observers
        ):
            return self._run_instrumented(state)
        # Run-scoped observers only need the start/finish callbacks the
        # protocol guarantees; fused blocks honor those.
        for observer in self.observers:
            observer.on_run_start(self.config, self.program)
        result = self._run_superop(state)
        for observer in self.observers:
            observer.on_run_finish(result)
        return result

    def _run_superop(self, state: MachineState) -> SimulationResult:
        config = self.config
        superops = self._superops
        if superops is None:
            superops = compilation_cache().get_or_compile_superops(
                config, self.program, executable=self.executable
            )
            self._superops = superops
        icache = SetAssociativeCache(config.icache, "icache")
        dcache = SetAssociativeCache(config.dcache, "dcache")
        counts, taken_counts, icache_misses, dcache_misses, interlocks = dispatch(
            self.executable,
            state,
            self.max_instructions,
            superops,
            icache.offset_bits,
            dcache.offset_bits,
            icache.access,
            dcache.access,
        )
        stats = _aggregate_stats(
            config, self.executable, counts, taken_counts,
            icache_misses, dcache_misses, interlocks,
        )
        return SimulationResult(
            program=self.program,
            config=config,
            stats=stats,
            state=state,
            engine="superop",
        )

    # ------------------------------------------------------------------
    # instrumented path: observer chain and/or trace materialization
    # ------------------------------------------------------------------

    def _run_instrumented(self, state: MachineState) -> SimulationResult:
        executable = self.executable
        config = self.config
        chain: list[SimObserver] = []
        trace_observer: Optional[TraceObserver] = None
        if self.collect_trace:
            trace_observer = TraceObserver()
            chain.append(trace_observer)
        chain.extend(self.observers)
        for observer in chain:
            observer.on_run_start(config, self.program)
        # Prefilter per granularity once, so unused callbacks cost nothing
        # in the hot loop.
        retire_observers = [o for o in chain if o.wants_retire]
        event_observers = [o for o in chain if o.wants_events]
        need_result = any(o.needs_result for o in retire_observers)
        event = RetireEvent()  # reused every instruction (observers copy)

        ops = executable.ops
        pc_map = executable.pc_to_index
        counts = [0] * len(ops)
        taken_counts = [0] * len(ops)
        icache = SetAssociativeCache(config.icache, "icache")
        dcache = SetAssociativeCache(config.dcache, "dcache")
        icache_access = icache.access
        dcache_access = dcache.access
        ishift = icache.offset_bits
        dshift = dcache.offset_bits
        icache_penalty = config.icache.miss_penalty
        dcache_penalty = config.dcache.miss_penalty
        timing = config.timing
        uncached_penalty = timing.uncached_fetch_penalty
        interlock_stall = timing.interlock_stall
        icache_misses = 0
        dcache_misses = 0
        interlocks = 0
        ilast = -1
        dlast = -1
        prev_load_dests: tuple[int, ...] = ()
        max_instructions = self.max_instructions
        state_get = state.regs.__getitem__ if executable.regs_in_range else state.get
        executed = 0

        pc = state.pc
        if pc != EXIT_ADDRESS:
            idx = pc_map.get(pc, -1)
            if idx < 0:
                raise SimulationError(
                    describe_invalid_pc(executable.program_name, pc, executable, None)
                )
            while True:
                if executed >= max_instructions:
                    raise SimulationLimitExceeded(
                        f"{executable.program_name}: "
                        f"exceeded {max_instructions} instructions"
                    )
                executed += 1
                op = ops[idx]
                addr = op[10]

                # ---- fetch -----------------------------------------------
                cycles = 0
                icache_miss = False
                uncached = not op[6]
                if uncached:
                    cycles += uncached_penalty
                    for observer in event_observers:
                        observer.on_uncached_fetch(addr)
                else:
                    line = addr >> ishift
                    if line != ilast:
                        ilast = line
                        if not icache_access(addr):
                            icache_miss = True
                            icache_misses += 1
                            cycles += icache_penalty
                            for observer in event_observers:
                                observer.on_icache_miss(addr)

                # ---- decode / hazard detection ---------------------------
                srcs = op[2]
                interlock = False
                if prev_load_dests:
                    for src in srcs:
                        if src in prev_load_dests:
                            interlock = True
                            interlocks += 1
                            cycles += interlock_stall
                            for observer in event_observers:
                                observer.on_interlock(addr)
                            break
                operands = tuple([state_get(src) for src in srcs]) if srcs else ()

                # ---- execute ---------------------------------------------
                state.pc = addr
                counts[idx] += 1
                next_pc = op[0](state, op[1])

                # ---- memory timing ---------------------------------------
                dcache_miss = False
                mem_addr: Optional[int] = None
                if op[5]:
                    mem_addr = (operands[0] + op[4]) & 0xFFFFFFFF
                    line = mem_addr >> dshift
                    if line != dlast:
                        dlast = line
                        if not dcache_access(mem_addr):
                            dcache_miss = True
                            dcache_misses += 1
                            cycles += dcache_penalty
                            for observer in event_observers:
                                observer.on_dcache_miss(mem_addr)

                # ---- retire: fan the event out to the observer chain -----
                if next_pc is None:
                    issue_cycles = op[14]
                    resolved = op[12]
                else:
                    taken_counts[idx] += 1
                    issue_cycles = op[15]
                    resolved = op[13]
                cycles += issue_cycles
                event.addr = addr
                event.mnemonic = op[11]
                event.iclass = resolved
                event.cycles = cycles
                event.issue_cycles = issue_cycles
                event.operands = operands
                if need_result:
                    dest0 = op[16]
                    event.result = state_get(dest0) if dest0 >= 0 else 0
                else:
                    event.result = 0
                event.icache_miss = icache_miss
                event.dcache_miss = dcache_miss
                event.uncached_fetch = uncached
                event.interlock = interlock
                event.mem_addr = mem_addr
                for observer in retire_observers:
                    observer.on_retire(event)

                # ---- hazard bookkeeping / next pc ------------------------
                prev_load_dests = op[8]
                if next_pc is None:
                    if state.halted:
                        state.pc = addr + INSTRUCTION_BYTES
                        break
                    idx = op[9]
                    if idx >= 0:
                        continue
                    pc = addr + INSTRUCTION_BYTES
                else:
                    if state.halted:
                        state.pc = next_pc
                        break
                    if next_pc == EXIT_ADDRESS:
                        state.pc = EXIT_ADDRESS
                        break
                    idx = pc_map.get(next_pc, -1)
                    if idx >= 0:
                        continue
                    pc = next_pc
                state.pc = pc
                raise SimulationError(
                    describe_invalid_pc(executable.program_name, pc, executable, addr)
                )

        stats = _aggregate_stats(
            config, executable, counts, taken_counts,
            icache_misses, dcache_misses, interlocks,
        )
        result = SimulationResult(
            program=self.program,
            config=config,
            stats=stats,
            state=state,
            trace=trace_observer.records if trace_observer is not None else None,
            engine="instrumented",
        )
        for observer in chain:
            observer.on_run_finish(result)
        return result


def simulate(
    config: ProcessorConfig,
    program: Program,
    collect_trace: bool = False,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    observers: Sequence[SimObserver] = (),
    executable: Optional[ExecutableProgram] = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(
        config,
        program,
        collect_trace=collect_trace,
        max_instructions=max_instructions,
        observers=observers,
        executable=executable,
    ).run()
