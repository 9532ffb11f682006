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

* the **instrumented loop** runs whenever an observer wants per-retire
  callbacks (a :class:`~repro.obs.bundled.TraceObserver` is one such
  observer): it populates one reused
  :class:`~repro.obs.events.RetireEvent` per instruction and fans it out
  to the :class:`~repro.obs.protocol.SimObserver` chain, exactly as the
  streaming protocol documents;
* the **superop loop** (:func:`dispatch`) runs when there is nothing to
  observe per instruction (the estimate/DSE common case): one call per
  fused *region* — a straight segment with its ending branch folded in,
  or a whole inner loop run to its exit with its internal branches
  inlined — plus a per-op path for everything no region covers (calls,
  returns, system ops, a region not yet fused because it has retired
  fewer than ``_FUSE_AFTER_OPS`` ops, the last iterations before the
  instruction budget).  No event objects, no operand tuples,
  no callback dispatch.  Solo runs, batched multi-config runs
  (:func:`repro.xtcore.batch.run_batch`) and forked serve workers all
  dispatch through this one loop and the same fused regions.

The one public way to run a program is :func:`repro.obs.run_session`;
per-retire data (a trace, switching activity, profiles) is always an
observer passed in its ``observers``.

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
from ..obs.events import RetireEvent
from ..obs.protocol import SimObserver
from ..obs.records import ExecutionStats
from .caches import SetAssociativeCache
from .compiled import (
    ExecutableProgram,
    compilation_cache,
    describe_invalid_pc,
    fuse_region,
)
from .config import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig
from .errors import SimulationError, SimulationLimitExceeded

#: Value planted in the link register at reset; returning to it halts the
#: simulation, so top-level routines may end with ``ret`` instead of ``halt``.
EXIT_ADDRESS = 0xFFFF_FFF0

#: Default stack-pointer value at reset (grows downward).
DEFAULT_STACK_TOP = 0x0007_FF00

#: Ops a region retires op by op before :func:`dispatch` fuses it: the
#: header's first entry after its slot reaches this count generates the
#: closure.  Generating one takes about 0.45 ms on average (34 lines at
#: about 13 us each, compile() included, over the 66 bundled cold
#: estimates: the ``codegen`` section of ``BENCH_ISS.json``), the price
#: of hundreds of op-by-op steps, so a region entered a handful of times
#: never pays it back, while a hot loop crosses this count within a few
#: iterations.  The ``fusion`` sweep of
#: ``benchmarks/bench_iss_throughput.py`` sized it (docs/PERFORMANCE.md,
#: "Payback fusion").
_FUSE_AFTER_OPS = 64

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
]


@dataclasses.dataclass
class SimulationResult:
    """Output of one simulated run."""

    program: Program
    config: ProcessorConfig
    stats: ExecutionStats
    state: MachineState
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

    def word(self, symbol: str) -> int:
        """Read a 32-bit little-endian word at a program symbol (for checks)."""
        return self.state.memory.read(self.program.symbol(symbol), 4)

    def words(self, symbol: str, count: int) -> list[int]:
        base = self.program.symbol(symbol)
        return [self.state.memory.read(base + 4 * i, 4) for i in range(count)]


def _fold(
    executable: ExecutableProgram,
    counts: list[int],
    taken_counts: list[int],
    interlocks: int,
) -> tuple[ExecutionStats, int]:
    """Sum per-op retire counters into their pricing-free part.

    Mathematically identical to applying :func:`repro.obs.bundled.apply_event`
    per retired instruction (the reference interpreter's folding rule), but
    O(static ops) instead of O(dynamic instructions): every retire of one
    micro-op contributes the same class, issue cycles and bus attribution,
    so the per-retire sums collapse to ``count x per-op values`` — with
    branches split by their taken count.

    Returns ``(counters, issue_total)``: stats with no misses and no
    ``total_cycles`` yet, and the summed issue cycles.  Neither depends on
    caches, miss penalties, interlock stall or the uncached-fetch penalty,
    so one fold serves every config sharing a
    :attr:`~repro.xtcore.config.ProcessorConfig.lowering_key`.
    """
    counters = ExecutionStats()
    class_cycles = counters.class_cycles
    class_counts = counters.class_counts
    mnemonic_counts = counters.mnemonic_counts
    custom_cycles = counters.custom_cycles
    custom_counts = counters.custom_counts
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
    counters.interlocks = interlocks
    counters.uncached_fetches = uncached_fetches
    counters.custom_gpr_cycles = gpr_cycles
    counters.base_bus_cycles = base_bus
    counters.system_cycles = system
    counters.total_instructions = total_instructions
    return counters, issue_total


def _price(
    config: ProcessorConfig,
    fold: tuple[ExecutionStats, int],
    icache_misses: int,
    dcache_misses: int,
) -> ExecutionStats:
    """Price a :func:`_fold` against ``config``: a fresh :class:`ExecutionStats`.

    The result owns copies of the fold's dicts, so a fold priced for many
    configs hands no caller a dict that another result shares.
    """
    counters, issue_total = fold
    timing = config.timing
    return dataclasses.replace(
        counters,
        class_cycles=dict(counters.class_cycles),
        class_counts=dict(counters.class_counts),
        mnemonic_counts=dict(counters.mnemonic_counts),
        custom_cycles=dict(counters.custom_cycles),
        custom_counts=dict(counters.custom_counts),
        icache_misses=icache_misses,
        dcache_misses=dcache_misses,
        total_cycles=(
            issue_total
            + counters.interlocks * timing.interlock_stall
            + icache_misses * config.icache.miss_penalty
            + dcache_misses * config.dcache.miss_penalty
            + counters.uncached_fetches * timing.uncached_fetch_penalty
        ),
    )


def _aggregate_stats(
    config: ProcessorConfig,
    executable: ExecutableProgram,
    counts: list[int],
    taken_counts: list[int],
    icache_misses: int,
    dcache_misses: int,
    interlocks: int,
) -> ExecutionStats:
    """Fold per-op retire counters and price them into :class:`ExecutionStats`.

    Both dispatch loops use this, so superop stats equal instrumented
    stats by construction; :func:`repro.xtcore.batch.run_batch` calls
    :func:`_fold` once per lowering and :func:`_price` per member.
    """
    return _price(
        config,
        _fold(executable, counts, taken_counts, interlocks),
        icache_misses,
        dcache_misses,
    )


def dispatch(
    executable: ExecutableProgram,
    state: MachineState,
    max_instructions: int,
    ishift: int,
    dshift: int,
    icache_access: Callable[[int], Optional[bool]],
    dcache_access: Callable[[int], Optional[bool]],
) -> tuple[list[int], list[int], int, int, int]:
    """The un-instrumented dispatch loop: semantics plus retire counters.

    Runs ``executable`` from ``state.pc`` to completion and returns
    ``(counts, taken_counts, icache_misses, dcache_misses, interlocks)``
    for :func:`_aggregate_stats`.  Through the executable's region
    lowering at ``(ishift, dshift)``
    (:meth:`~repro.xtcore.compiled.ExecutableProgram.superops`), an op
    index heading a region runs the region to its exit in one fused
    call once the region has paid for its code: until then each entry
    runs it op by op and adds its length (the most one pass retires)
    to the region's :attr:`~repro.xtcore.compiled.SuperopProgram.fused`
    slot, and the first entry after that count reaches
    ``_FUSE_AFTER_OPS`` generates the closure
    (:func:`~repro.xtcore.compiled.fuse_region`) into the slot.  A loop
    region runs whole iterations, its internal branches inlined, until
    an edge leaves it or the worst-case iterations that fit in the
    remaining instruction budget have run.  Every other op, and any
    region whose worst-case iteration would cross the budget, takes the
    per-op path.
    ``icache_access``/``dcache_access`` see the first address of every
    same-line transition at ``ishift``/``dshift`` granularity, on the
    fused and per-op paths alike, and report hits; a falsy return counts
    as a miss, so a recorder such as ``list.append`` captures the
    address streams (and its miss counts are meaningless).
    """
    ops = executable.ops
    pc_map = executable.pc_to_index
    superops = executable.superops(ishift, dshift)
    block_at = superops.block_at
    fused = superops.fused
    fuse_after = _FUSE_AFTER_OPS
    counts = [0] * len(ops)
    taken_counts = [0] * len(ops)
    segment_counts = [0] * len(ops)  # keyed by the segment's first op index
    interlocks = 0
    # Same-line memo + miss counters as two-slot lists so fused region
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
            # Region fields by position (BLK_* in compiled.py): 1 length,
            # 3 header srcs, 5 load dests at a fall-through exit, 7 last
            # address.
            block = block_at[idx]
            if block is not None and executed + block[1] <= max_instructions:
                fn = fused[idx]
                if fn.__class__ is int:
                    # Not fused yet: the slot holds the ops this region
                    # has retired op by op, charged one full pass per
                    # entry.  Once that pays for its code, fuse and
                    # re-probe; until then run this pass op by op below.
                    if fn >= fuse_after:
                        fused[idx] = fuse_region(ops, block, dshift)
                        continue
                    fused[idx] = fn + block[1]
                else:
                    # Fused fast path: the region runs to its exit in one
                    # call — semantics, branches, I-line memo and D-cache
                    # replays inlined into one generated closure, which
                    # returns where it left and what it retired.
                    if prev_load_dests:
                        for src in block[3]:
                            if src in prev_load_dests:
                                interlocks += 1
                                break
                    idx, retired, stalls = fn(
                        state, ic, dc, icache_access, dcache_access,
                        segment_counts, taken_counts, max_instructions - executed,
                    )
                    executed += retired
                    interlocks += stalls
                    prev_load_dests = block[5]
                    if idx >= 0:
                        continue
                    # Fell off the end of the mapped address range.
                    addr = block[7]
                    pc = (addr + INSTRUCTION_BYTES) & 0xFFFFFFFF
                    state.pc = pc
                    raise SimulationError(
                        describe_invalid_pc(
                            executable.program_name, pc, executable, addr
                        )
                    )
            # Per-op path: ops no region covers (calls, returns, system
            # ops, unfoldable customs and branches), a region that has
            # not yet paid for its code, landings off a header from
            # dynamic jumps, and regions that could cross the
            # instruction budget (so SimulationLimitExceeded raises at
            # the exact instruction, after any earlier fault).
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

    # Expand per-segment execution counters into the per-op counts the
    # aggregation contract expects (O(static ops), like aggregation).
    segment_at = superops.segment_at
    for start, count in enumerate(segment_counts):
        if count:
            for i in range(start, segment_at[start][1] + 1):
                counts[i] += count
    return counts, taken_counts, ic[1], dc[1], interlocks


class Simulator:
    """Executes one :class:`Program` on one :class:`ProcessorConfig`.

    Construction resolves the program against the process-wide
    :func:`~repro.xtcore.compiled.compilation_cache` (pass ``executable``
    to reuse a lowering compiled elsewhere).  ``observers`` registers
    :class:`~repro.obs.protocol.SimObserver` subscribers on every run.

    Each run picks its dispatch loop from what it must report: the
    instrumented per-op loop when an observer wants per-retire
    callbacks (``wants_retire`` / ``wants_events``),
    the superop region loop (:func:`dispatch`) otherwise.  Stats are
    bitwise identical either way.  Most callers should go through
    :func:`repro.obs.run_session` instead of constructing a ``Simulator``
    directly.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        observers: Sequence[SimObserver] = (),
        executable: Optional[ExecutableProgram] = None,
    ) -> None:
        self.config = config
        self.program = program
        self.max_instructions = max_instructions
        self.observers = tuple(observers)
        if executable is None:
            executable = compilation_cache().get_or_compile(config, program)
        elif (
            executable.program_digest != program.digest()
            or executable.lowering_key != config.lowering_key
        ):
            raise SimulationError(
                f"executable {executable!r} was compiled for different content "
                f"than ({program.name}, {config.name})"
            )
        self.executable = executable

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
        if any(o.wants_retire or o.wants_events for o in self.observers):
            return self._run_instrumented(state)
        # Run-scoped observers only need the start/finish callbacks the
        # protocol guarantees; fused regions honor those.
        for observer in self.observers:
            observer.on_run_start(self.config, self.program)
        result = self._run_superop(state)
        for observer in self.observers:
            observer.on_run_finish(result)
        return result

    def _run_superop(self, state: MachineState) -> SimulationResult:
        config = self.config
        icache = SetAssociativeCache(config.icache, "icache")
        dcache = SetAssociativeCache(config.dcache, "dcache")
        counts, taken_counts, icache_misses, dcache_misses, interlocks = dispatch(
            self.executable,
            state,
            self.max_instructions,
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
    # instrumented path: the per-retire observer chain
    # ------------------------------------------------------------------

    def _run_instrumented(self, state: MachineState) -> SimulationResult:
        executable = self.executable
        config = self.config
        chain = self.observers
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
            engine="instrumented",
        )
        for observer in chain:
            observer.on_run_finish(result)
        return result

