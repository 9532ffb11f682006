"""Program compilation: lowering a :class:`Program` to dispatchable micro-ops.

The interpreter used to re-resolve everything per retired instruction —
semantics lookup, ``source_registers``/``dest_registers`` construction,
the branch/jump class-and-latency decision tree, the uncached-range scan
— and re-decode the whole program on every :class:`Simulator`
construction.  This module hoists all of that to **compile time**:

* :func:`compile_program` lowers a ``(ProcessorConfig, Program)`` pair
  into an :class:`ExecutableProgram` — a dense, index-addressed tuple of
  fused micro-op records with the semantics callable, operand register
  tuples, resolved-or-BRANCH instruction class, issue latencies for both
  control outcomes, uncached flag and fall-through successor index all
  pre-bound;
* :class:`CompilationCache` memoizes those lowerings across runs, keyed
  by ``(Program.digest(), ProcessorConfig.fingerprint())`` — content
  hashes, so equal-content programs/configs share one compilation no
  matter how many objects or processes spell them;
* :func:`describe_invalid_pc` turns a wild program counter into an
  actionable diagnostic (nearest preceding symbol, last retired address).

The dispatch loops that consume this IR live in :mod:`repro.xtcore.iss`.
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_right
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Optional, TypeVar

from ..isa import INSTRUCTION_BYTES, InstructionClass
from ..isa.bits import (
    byte_swap,
    count_leading_zeros,
    count_trailing_zeros,
    popcount,
    rotate_left,
    rotate_right,
    sign_extend,
)
from ..isa.classes import BASE_ENERGY_CLASSES
from ..isa.state import SparseMemory
from ..tie.compiler import LazySemantics
from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from .config import ProcessorConfig

_Built = TypeVar("_Built")

#: Field indices of one micro-op record (a plain tuple, unpacked by the
#: dispatch loops).  Kept flat and positional on purpose: attribute access
#: on a dataclass costs a dict probe per field per retire, tuple unpacking
#: is a single bytecode.
OP_SEM = 0  #: semantics callable
OP_INS = 1  #: the decoded :class:`Instruction`
OP_SRCS = 2  #: source-register tuple (pre-resolved)
OP_SRC0 = 3  #: first source register, or -1 (memory base / result fast path)
OP_IMM = 4  #: ``ins.imm or 0`` (memory-address offset)
OP_MEM = 5  #: True when the op is a LOAD or STORE
OP_CACHED = 6  #: True when fetched through the I-cache (not an uncached range)
OP_BRANCH = 7  #: True when the static class is BRANCH (outcome-resolved)
OP_LOAD_DESTS = 8  #: dest-register tuple when LOAD (interlock source), else ()
OP_FALL_IDX = 9  #: index of the fall-through successor, or -1
OP_ADDR = 10  #: byte address of the instruction
OP_MNEMONIC = 11  #: mnemonic string
OP_CLASS_UNTAKEN = 12  #: retire class when the pc is not redirected
OP_CLASS_TAKEN = 13  #: retire class when the pc is redirected
OP_ISSUE_UNTAKEN = 14  #: issue cycles, untaken outcome
OP_ISSUE_TAKEN = 15  #: issue cycles, taken outcome (jump penalty folded in)
OP_DEST0 = 16  #: first destination register, or -1
OP_CUSTOM_KIND = 17  #: 0 = base op, 1 = custom, 2 = custom accessing the GPR file
OP_HAS_SRCS = 18  #: bool(srcs) — drives base-bus-cycle attribution
OP_BASE_CLASS = 19  #: untaken class is one of the six base energy classes
OP_INTERIOR = 20  #: eligible for fusion into a superop block interior

#: Generic (unspecialized) mnemonics proven safe as superop interiors:
#: their semantics never read ``ctx.pc``, never redirect control, never
#: halt, and touch only registers through the bounds-checked accessors —
#: so fusing them into a block is observationally identical to per-op
#: dispatch (a fault simply propagates out of the block).
_SAFE_GENERIC_INTERIOR = frozenset({"quos", "quou", "rems", "remu"})

#: Classes whose ops may be block interiors.  JUMP/BRANCH redirect the
#: pc and SYSTEM covers ``halt``/``break`` (run terminators) — those end
#: a block.  CUSTOM is handled separately: TIE-compiled semantics carry a
#: ``tie_straightline`` marker proving they are pure dataflow.
_INTERIOR_CLASSES = (
    InstructionClass.ARITH,
    InstructionClass.LOAD,
    InstructionClass.STORE,
)


@dataclasses.dataclass(frozen=True)
class ExecutableProgram:
    """A :class:`Program` lowered against one :class:`ProcessorConfig`.

    Index-addressed: ``ops[i]`` executes the instruction at ``addrs[i]``,
    and sequential fall-through is ``ops[i][OP_FALL_IDX]`` instead of a
    dict probe on the next byte address.  Immutable once built, so one
    instance is safely shared across runs, sessions and forked workers.
    """

    program_name: str
    config_name: str
    program_digest: str
    config_fingerprint: str
    entry: int
    ops: tuple[tuple, ...]
    addrs: tuple[int, ...]
    pc_to_index: dict[int, int]
    #: ``(addr, name)`` pairs sorted by address — diagnostics only.
    symbols_by_addr: tuple[tuple[int, str], ...]
    #: every source/dest register of every op is < num_registers, so the
    #: dispatch loops may read the register file without bounds checks.
    regs_in_range: bool = True

    def __len__(self) -> int:
        return len(self.ops)

    def index_of(self, pc: int) -> int:
        """Micro-op index for ``pc``, or -1 when no instruction lives there."""
        return self.pc_to_index.get(pc, -1)

    def nearest_symbol(self, pc: int) -> Optional[tuple[str, int]]:
        """``(name, offset)`` of the closest symbol at or before ``pc``."""
        table = self.symbols_by_addr
        pos = bisect_right(table, (pc, "￿")) - 1
        if pos < 0:
            return None
        addr, name = table[pos]
        return name, pc - addr

    def __repr__(self) -> str:
        return (
            f"ExecutableProgram({self.program_name} on {self.config_name}: "
            f"{len(self.ops)} ops, key {self.program_digest[:8]}/"
            f"{self.config_fingerprint[:8]})"
        )


# ---------------------------------------------------------------------------
# Compile-time semantics specialization
# ---------------------------------------------------------------------------
#
# The generic semantics callables go through ``ctx.get``/``ctx.set`` (a
# bounds check + method call per register touch), re-probe ``ins``
# attributes per retire, and call ``truncate``/``to_signed`` helpers.
# All of that is static once the instruction is known: register indices
# can be bounds-checked *at compile time* (skipping specialization when
# one is out of range, so the generic runtime error is preserved),
# immediates can be pre-masked, and loads/stores can take a single-page
# fast path through the sparse memory.  Each emitter below produces a
# closure that is observationally identical to the generic callable —
# same register/memory mutations, same return value — just with the
# per-retire overhead folded away.  The differential harness
# (tests/integration/test_dispatch_differential.py) pins that claim.
#
# Unspecialized mnemonics (TIE customs, divides, ``break``) fall back to
# ``definition.semantics`` (a TIE custom's generated on first lowering).

_M = 0xFFFFFFFF
_SIGN_BIT = 0x80000000
_TWO32 = 0x100000000
_PAGE_BITS = SparseMemory.PAGE_BITS
_PAGE_SIZE = SparseMemory.PAGE_SIZE
_PAGE_MASK = _PAGE_SIZE - 1


def _regs_ok(num_regs: int, *regs: Optional[int]) -> bool:
    for reg in regs:
        if reg is None or reg < 0 or reg >= num_regs:
            return False
    return True


def _r3(fn):
    """rd <- fn(rs, rt) & M  (unsigned-operand R3 ops)."""

    def emit(ins, addr, num_regs):
        rd, rs, rt = ins.rd, ins.rs, ins.rt
        if not _regs_ok(num_regs, rd, rs, rt):
            return None

        def sem(state, _ins):
            regs = state.regs
            regs[rd] = fn(regs[rs], regs[rt]) & _M

        return sem

    return emit


def _r3_signed(fn):
    """rd <- fn(signed rs, signed rt) & M."""

    def emit(ins, addr, num_regs):
        rd, rs, rt = ins.rd, ins.rs, ins.rt
        if not _regs_ok(num_regs, rd, rs, rt):
            return None

        def sem(state, _ins):
            regs = state.regs
            a = regs[rs]
            b = regs[rt]
            if a & _SIGN_BIT:
                a -= _TWO32
            if b & _SIGN_BIT:
                b -= _TWO32
            regs[rd] = fn(a, b) & _M

        return sem

    return emit


def _r2(fn):
    """rd <- fn(rs) & M."""

    def emit(ins, addr, num_regs):
        rd, rs = ins.rd, ins.rs
        if not _regs_ok(num_regs, rd, rs):
            return None

        def sem(state, _ins):
            regs = state.regs
            regs[rd] = fn(regs[rs]) & _M

        return sem

    return emit


def _cond_move(test):
    """rd <- rs when test(rt-value) holds (MOVEQZ family)."""

    def emit(ins, addr, num_regs):
        rd, rs, rt = ins.rd, ins.rs, ins.rt
        if not _regs_ok(num_regs, rd, rs, rt):
            return None

        def sem(state, _ins):
            regs = state.regs
            if test(regs[rt]):
                regs[rd] = regs[rs]

        return sem

    return emit


def _imm_op(fold, fn):
    """rd <- fn(rs, fold(imm)) & M — immediate pre-masked at compile time."""

    def emit(ins, addr, num_regs):
        rd, rs = ins.rd, ins.rs
        if not _regs_ok(num_regs, rd, rs):
            return None
        k = fold(ins.imm)

        def sem(state, _ins):
            regs = state.regs
            regs[rd] = fn(regs[rs], k) & _M

        return sem

    return emit


def _load_emitter(size, signed):
    ext_bits = size * 8
    sign_bit = 1 << (ext_bits - 1)
    ext_mask = (_M >> ext_bits) << ext_bits  # high bits set on sign extension
    in_page_limit = _PAGE_SIZE - size

    def emit(ins, addr, num_regs):
        rt, rs = ins.rt, ins.rs
        if not _regs_ok(num_regs, rt, rs):
            return None
        imm = (ins.imm or 0) & _M

        def sem(state, _ins):
            regs = state.regs
            mem_addr = (regs[rs] + imm) & _M
            offset = mem_addr & _PAGE_MASK
            if offset <= in_page_limit:
                page = state.memory._pages.get(mem_addr >> _PAGE_BITS)
                value = (
                    0
                    if page is None
                    else int.from_bytes(page[offset : offset + size], "little")
                )
            else:  # straddles a page boundary: per-byte generic read
                value = state.memory.read(mem_addr, size)
            if signed and value & sign_bit:
                value |= ext_mask
            regs[rt] = value

        return sem

    return emit


def _store_emitter(size):
    in_page_limit = _PAGE_SIZE - size
    value_mask = (1 << (size * 8)) - 1

    def emit(ins, addr, num_regs):
        rt, rs = ins.rt, ins.rs
        if not _regs_ok(num_regs, rt, rs):
            return None
        imm = (ins.imm or 0) & _M

        def sem(state, _ins):
            regs = state.regs
            mem_addr = (regs[rs] + imm) & _M
            offset = mem_addr & _PAGE_MASK
            if offset <= in_page_limit:
                pages = state.memory._pages
                index = mem_addr >> _PAGE_BITS
                page = pages.get(index)
                if page is None:
                    page = bytearray(_PAGE_SIZE)
                    pages[index] = page
                page[offset : offset + size] = (regs[rt] & value_mask).to_bytes(
                    size, "little"
                )
            else:  # straddles a page boundary: per-byte generic write
                state.memory.write(mem_addr, regs[rt], size)

        return sem

    return emit


def _branch2(test):
    """Taken target (imm) when test(rs-value, rt-value) holds."""

    def emit(ins, addr, num_regs):
        rs, rt = ins.rs, ins.rt
        if not _regs_ok(num_regs, rs, rt):
            return None
        target = ins.imm

        def sem(state, _ins):
            regs = state.regs
            return target if test(regs[rs], regs[rt]) else None

        return sem

    return emit


def _branch2_signed(test):
    def emit(ins, addr, num_regs):
        rs, rt = ins.rs, ins.rt
        if not _regs_ok(num_regs, rs, rt):
            return None
        target = ins.imm

        def sem(state, _ins):
            regs = state.regs
            a = regs[rs]
            b = regs[rt]
            if a & _SIGN_BIT:
                a -= _TWO32
            if b & _SIGN_BIT:
                b -= _TWO32
            return target if test(a, b) else None

        return sem

    return emit


def _branch1(test):
    """Taken target when test(rs-value) holds (unsigned/sign-bit forms)."""

    def emit(ins, addr, num_regs):
        rs = ins.rs
        if not _regs_ok(num_regs, rs):
            return None
        target = ins.imm

        def sem(state, _ins):
            return target if test(state.regs[rs]) else None

        return sem

    return emit


def _branch_imm(test):
    """BI compares: rs against the signed immediate folded into ``rt``."""

    def emit(ins, addr, num_regs):
        rs = ins.rs
        if not _regs_ok(num_regs, rs):
            return None
        target = ins.imm
        b = ins.rt - _TWO32 if ins.rt & _SIGN_BIT else ins.rt

        def sem(state, _ins):
            a = state.regs[rs]
            if a & _SIGN_BIT:
                a -= _TWO32
            return target if test(a, b) else None

        return sem

    return emit


def _branch_bit(want_set):
    def emit(ins, addr, num_regs):
        rs = ins.rs
        if not _regs_ok(num_regs, rs):
            return None
        target = ins.imm
        shift = ins.rt & 31

        def sem(state, _ins):
            taken = ((state.regs[rs] >> shift) & 1) == want_set
            return target if taken else None

        return sem

    return emit


def _emit_movi(ins, addr, num_regs):
    rd = ins.rd
    if not _regs_ok(num_regs, rd):
        return None
    value = ins.imm & _M

    def sem(state, _ins):
        state.regs[rd] = value

    return sem


def _emit_movhi(ins, addr, num_regs):
    rd = ins.rd
    if not _regs_ok(num_regs, rd):
        return None
    value = ((ins.imm & 0x3FFFF) << 12) & _M

    def sem(state, _ins):
        state.regs[rd] = value

    return sem


def _emit_j(ins, addr, num_regs):
    target = ins.imm

    def sem(state, _ins):
        return target

    return sem


def _emit_jx(ins, addr, num_regs):
    rs = ins.rs
    if not _regs_ok(num_regs, rs):
        return None

    def sem(state, _ins):
        return state.regs[rs]

    return sem


def _emit_call(ins, addr, num_regs):
    # ``ctx.pc`` equals the instruction's own address when semantics run,
    # so the link value is a compile-time constant.
    target = ins.imm
    link = (addr + INSTRUCTION_BYTES) & _M

    def sem(state, _ins):
        state.regs[0] = link
        return target

    return sem


def _emit_callx(ins, addr, num_regs):
    rs = ins.rs
    if not _regs_ok(num_regs, rs):
        return None
    link = (addr + INSTRUCTION_BYTES) & _M

    def sem(state, _ins):
        target = state.regs[rs]  # read before the link write (rs may be a0)
        state.regs[0] = link
        return target

    return sem


def _emit_ret(ins, addr, num_regs):
    def sem(state, _ins):
        return state.regs[0]

    return sem


def _emit_nop(ins, addr, num_regs):
    def sem(state, _ins):
        return None

    return sem


def _emit_halt(ins, addr, num_regs):
    def sem(state, _ins):
        state.halted = True

    return sem


def _emit_mulh(signed):
    def emit(ins, addr, num_regs):
        rd, rs, rt = ins.rd, ins.rs, ins.rt
        if not _regs_ok(num_regs, rd, rs, rt):
            return None

        def sem(state, _ins):
            regs = state.regs
            a = regs[rs]
            b = regs[rt]
            if signed:
                if a & _SIGN_BIT:
                    a -= _TWO32
                if b & _SIGN_BIT:
                    b -= _TWO32
            regs[rd] = ((a * b) >> 32) & _M

        return sem

    return emit


def _emit_abs(ins, addr, num_regs):
    rd, rs = ins.rd, ins.rs
    if not _regs_ok(num_regs, rd, rs):
        return None

    def sem(state, _ins):
        regs = state.regs
        a = regs[rs]
        if a & _SIGN_BIT:
            a = _TWO32 - a  # |signed(a)| for the negative half, mod 2^32
        regs[rd] = a & _M

    return sem


def _emit_slti(ins, addr, num_regs):
    rd, rs = ins.rd, ins.rs
    if not _regs_ok(num_regs, rd, rs):
        return None
    k = ins.imm

    def sem(state, _ins):
        a = state.regs[rs]
        if a & _SIGN_BIT:
            a -= _TWO32
        state.regs[rd] = 1 if a < k else 0

    return sem


def _emit_sltiu(ins, addr, num_regs):
    rd, rs = ins.rd, ins.rs
    if not _regs_ok(num_regs, rd, rs):
        return None
    k = ins.imm & _M

    def sem(state, _ins):
        state.regs[rd] = 1 if state.regs[rs] < k else 0

    return sem


#: mnemonic -> emitter(ins, addr, num_regs) -> specialized callable or None.
_EMITTERS = {
    # R3 unsigned arithmetic/logic
    "add": _r3(lambda a, b: a + b),
    "sub": _r3(lambda a, b: a - b),
    "and": _r3(lambda a, b: a & b),
    "or": _r3(lambda a, b: a | b),
    "xor": _r3(lambda a, b: a ^ b),
    "nor": _r3(lambda a, b: ~(a | b)),
    "andn": _r3(lambda a, b: a & ~b),
    "orn": _r3(lambda a, b: a | ~b),
    "xnor": _r3(lambda a, b: ~(a ^ b)),
    "addx2": _r3(lambda a, b: (a << 1) + b),
    "addx4": _r3(lambda a, b: (a << 2) + b),
    "addx8": _r3(lambda a, b: (a << 3) + b),
    "subx2": _r3(lambda a, b: (a << 1) - b),
    "subx4": _r3(lambda a, b: (a << 2) - b),
    "sltu": _r3(lambda a, b: 1 if a < b else 0),
    "minu": _r3(min),
    "maxu": _r3(max),
    "mull": _r3(lambda a, b: a * b),
    # R3 signed
    "slt": _r3_signed(lambda a, b: 1 if a < b else 0),
    "min": _r3_signed(min),
    "max": _r3_signed(max),
    "mulh": _emit_mulh(signed=True),
    "mulhu": _emit_mulh(signed=False),
    # register shifts
    "sll": _r3(lambda a, b: a << (b & 31)),
    "srl": _r3(lambda a, b: a >> (b & 31)),
    "sra": _r3(lambda a, b: (a - _TWO32 if a & _SIGN_BIT else a) >> (b & 31)),
    "rotl": _r3(lambda a, b: rotate_left(a, b & 31)),
    "rotr": _r3(lambda a, b: rotate_right(a, b & 31)),
    # R2 unary
    "mov": _r2(lambda a: a),
    "neg": _r2(lambda a: -a),
    "not": _r2(lambda a: ~a),
    "abs": _emit_abs,
    "sext8": _r2(lambda a: sign_extend(a, 8)),
    "sext16": _r2(lambda a: sign_extend(a, 16)),
    "zext8": _r2(lambda a: a & 0xFF),
    "zext16": _r2(lambda a: a & 0xFFFF),
    "clz": _r2(count_leading_zeros),
    "ctz": _r2(count_trailing_zeros),
    "popc": _r2(popcount),
    "bswap": _r2(byte_swap),
    # conditional moves (rt tested as signed; sign bit is all that matters)
    "moveqz": _cond_move(lambda t: t == 0),
    "movnez": _cond_move(lambda t: t != 0),
    "movltz": _cond_move(lambda t: t & _SIGN_BIT != 0),
    "movgez": _cond_move(lambda t: t & _SIGN_BIT == 0),
    # immediates
    "addi": _imm_op(lambda i: i & _M, lambda a, k: a + k),
    "addmi": _imm_op(lambda i: (i & _M) << 8, lambda a, k: a + k),
    "andi": _imm_op(lambda i: i & 0xFFF, lambda a, k: a & k),
    "ori": _imm_op(lambda i: i & 0xFFF, lambda a, k: a | k),
    "xori": _imm_op(lambda i: i & 0xFFF, lambda a, k: a ^ k),
    "slti": _emit_slti,
    "sltiu": _emit_sltiu,
    "slli": _imm_op(lambda i: i & 31, lambda a, k: a << k),
    "srli": _imm_op(lambda i: i & 31, lambda a, k: a >> k),
    "srai": _imm_op(
        lambda i: i & 31, lambda a, k: (a - _TWO32 if a & _SIGN_BIT else a) >> k
    ),
    "roli": _imm_op(lambda i: i & 31, rotate_left),
    "rori": _imm_op(lambda i: i & 31, rotate_right),
    "movi": _emit_movi,
    "movhi": _emit_movhi,
    # memory
    "l32i": _load_emitter(4, signed=False),
    "l16ui": _load_emitter(2, signed=False),
    "l16si": _load_emitter(2, signed=True),
    "l8ui": _load_emitter(1, signed=False),
    "l8si": _load_emitter(1, signed=True),
    "s32i": _store_emitter(4),
    "s16i": _store_emitter(2),
    "s8i": _store_emitter(1),
    # jumps / calls
    "j": _emit_j,
    "jx": _emit_jx,
    "call": _emit_call,
    "callx": _emit_callx,
    "ret": _emit_ret,
    # branches
    "beq": _branch2(lambda a, b: a == b),
    "bne": _branch2(lambda a, b: a != b),
    "blt": _branch2_signed(lambda a, b: a < b),
    "bge": _branch2_signed(lambda a, b: a >= b),
    "bltu": _branch2(lambda a, b: a < b),
    "bgeu": _branch2(lambda a, b: a >= b),
    "beqz": _branch1(lambda a: a == 0),
    "bnez": _branch1(lambda a: a != 0),
    "bltz": _branch1(lambda a: a & _SIGN_BIT != 0),
    "bgez": _branch1(lambda a: a & _SIGN_BIT == 0),
    "beqi": _branch_imm(lambda a, b: a == b),
    "bnei": _branch_imm(lambda a, b: a != b),
    "blti": _branch_imm(lambda a, b: a < b),
    "bgei": _branch_imm(lambda a, b: a >= b),
    "bbs": _branch_bit(1),
    "bbc": _branch_bit(0),
    # system ("break" stays generic: it raises with runtime context)
    "nop": _emit_nop,
    "halt": _emit_halt,
}


def _specialize(definition, ins, addr: int, num_registers: int):
    """A specialized semantics closure for this op, or None to use the generic."""
    if definition.iclass is InstructionClass.CUSTOM:
        return None
    emitter = _EMITTERS.get(definition.mnemonic)
    if emitter is None:
        return None
    return emitter(ins, addr, num_registers)


def compile_program(config: "ProcessorConfig", program: "Program") -> ExecutableProgram:
    """Lower ``program`` against ``config`` into an :class:`ExecutableProgram`.

    Raises :class:`SimulationError` when the program uses a mnemonic that
    is not in the processor's ISA (same contract the per-run decoder had).
    """
    isa = config.isa
    penalty = config.timing.branch_taken_penalty
    gpr_mnemonics = frozenset(
        mnemonic
        for mnemonic, impl in config.extension_index.items()
        if impl.accesses_gpr
    )

    addrs = tuple(sorted(program.instructions))
    pc_to_index = {addr: index for index, addr in enumerate(addrs)}
    ops: list[tuple] = []
    num_registers = config.num_registers
    regs_in_range = True
    for addr in addrs:
        ins = program.instructions[addr]
        try:
            definition = isa.lookup(ins.mnemonic)
        except KeyError as exc:
            raise SimulationError(
                f"{program.name}: instruction {ins.mnemonic!r} at {addr:#x} "
                f"is not in processor {config.name}'s ISA"
            ) from exc
        srcs = definition.source_registers(ins)
        dests = definition.dest_registers(ins)
        if regs_in_range and any(
            reg < 0 or reg >= num_registers for reg in srcs + dests
        ):
            regs_in_range = False
        iclass = definition.iclass
        class_untaken, class_taken, issue_untaken, issue_taken = (
            definition.resolve_timing(penalty)
        )
        if iclass is InstructionClass.CUSTOM:
            custom_kind = 2 if ins.mnemonic in gpr_mnemonics else 1
        else:
            custom_kind = 0
        specialized = _specialize(definition, ins, addr, num_registers)
        semantics = specialized or definition.semantics
        if isinstance(semantics, LazySemantics):
            # The op table holds the generated closure itself, so neither
            # dispatch loop pays a forwarding call per retire.
            semantics = semantics.resolve()
        # Interior ops are provably straight-line: they never redirect the
        # pc, never halt, and never read ``ctx.pc``, so a whole run of them
        # can execute as one fused superop call (see compile_superops).
        # Custom instructions qualify when the TIE compiler marked their
        # semantics straight-line (pure dataflow by construction).
        interior = (
            iclass in _INTERIOR_CLASSES
            and (specialized is not None or ins.mnemonic in _SAFE_GENERIC_INTERIOR)
        ) or (
            iclass is InstructionClass.CUSTOM
            and getattr(definition.semantics, "tie_straightline", False)
        )
        ops.append(
            (
                semantics,
                ins,
                srcs,
                srcs[0] if srcs else -1,
                ins.imm or 0,
                iclass in (InstructionClass.LOAD, InstructionClass.STORE),
                not program.is_uncached(addr),
                iclass is InstructionClass.BRANCH,
                dests if iclass is InstructionClass.LOAD else (),
                pc_to_index.get(addr + INSTRUCTION_BYTES, -1),
                addr,
                ins.mnemonic,
                class_untaken,
                class_taken,
                issue_untaken,
                issue_taken,
                dests[0] if dests else -1,
                custom_kind,
                bool(srcs),
                class_untaken in BASE_ENERGY_CLASSES,
                interior,
            )
        )

    return ExecutableProgram(
        program_name=program.name,
        config_name=config.name,
        program_digest=program.digest(),
        config_fingerprint=config.fingerprint(),
        entry=program.entry,
        ops=tuple(ops),
        addrs=addrs,
        pc_to_index=pc_to_index,
        symbols_by_addr=tuple(
            sorted((addr, name) for name, addr in program.symbols.items())
        ),
        regs_in_range=regs_in_range,
    )


# ---------------------------------------------------------------------------
# Superop lowering: fusing basic blocks into single-dispatch closures
# ---------------------------------------------------------------------------
#
# A per-op dispatch loop pays one Python dispatch iteration per
# retired instruction: budget check, op-tuple load, I-cache memo,
# interlock scan, pc bookkeeping, successor resolution.  For a run of
# *interior* ops (see OP_INTERIOR) every one of those outcomes is a
# compile-time constant: the run retires exactly ``length`` instructions,
# touches a fixed I-line sequence, stalls a fixed number of internal
# interlocks and falls through to a fixed successor.  compile_superops
# folds each maximal interior run into one block descriptor so the
# dispatch loop in :mod:`repro.xtcore.iss` pays the bookkeeping once per
# *block* instead of once per instruction — and anything that could make
# the folding observable (faults, budget expiry mid-block, observers)
# side-exits to the per-op path instead.

#: Field indices of one superop block descriptor (flat tuple, same
#: rationale as the OP_* layout above).
BLK_ID = 0  #: dense block index
BLK_START = 1  #: op index of the first instruction in the block
BLK_LEN = 2  #: number of instructions retired per block execution
BLK_STEPS = 3  #: fused execution steps (see compile_superops)
BLK_IFETCH = 4  #: ``(line, addr)`` per distinct I-line touched, in order
BLK_FIRST_SRCS = 5  #: source regs of the first op (incoming-interlock check)
BLK_INTERLOCKS = 6  #: load-use interlocks internal to the block (static)
BLK_LOAD_DESTS = 7  #: load dests of the last op (outgoing-interlock state)
BLK_NEXT_IDX = 8  #: op index the block falls through to, or -1
BLK_LAST_ADDR = 9  #: byte address of the last instruction (diagnostics)


@dataclasses.dataclass(frozen=True)
class SuperopProgram:
    """Block-level lowering of an :class:`ExecutableProgram`.

    ``block_at[i]`` is the block descriptor whose first op is ``ops[i]``
    (or None when op ``i`` does not lead a block), so the dispatch loop
    can probe block entry with one tuple index per control transfer.
    Derived purely from the executable plus the config's cache line
    sizes, all already pinned by the digest/fingerprint pair, so one
    instance is shared across runs, threads and forked workers.

    The descriptors are immutable; ``fused[i]``, the slot of the block
    headed by op ``i``, fills on demand (:func:`repro.xtcore.iss.dispatch`):
    None until the block is first entered, False after one entry (run op
    by op), then the closure from :func:`fuse_block`.  A race between
    threads to fill one slot is harmless: each generates an equivalent
    closure and either may be kept, and fused and per-op execution
    retire identically.
    """

    program_digest: str
    config_fingerprint: str
    blocks: tuple[tuple, ...]
    block_at: tuple[Optional[tuple], ...]
    fused: list = dataclasses.field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def fused_ops(self) -> int:
        """Static op count covered by blocks (fusion coverage metric)."""
        return sum(block[BLK_LEN] for block in self.blocks)

    def __repr__(self) -> str:
        return (
            f"SuperopProgram({len(self.blocks)} blocks over "
            f"{self.fused_ops}/{len(self.block_at)} ops, key "
            f"{self.program_digest[:8]}/{self.config_fingerprint[:8]})"
        )


# Inline source templates for the superop block codegen.  Each template
# reproduces its specializer closure's body exactly — same masks, same
# signedness windows, same single-page memory fast path — so a fused
# block is observationally identical to calling the per-op closures in
# sequence (pinned by tests/integration/test_dispatch_differential.py).
# Ops with no template (divides, TIE customs) stay as bound calls.

_FUSE_R3 = {
    "add": "regs[{s}] + regs[{t}]",
    "sub": "regs[{s}] - regs[{t}]",
    "and": "regs[{s}] & regs[{t}]",
    "or": "regs[{s}] | regs[{t}]",
    "xor": "regs[{s}] ^ regs[{t}]",
    "nor": "~(regs[{s}] | regs[{t}])",
    "andn": "regs[{s}] & ~regs[{t}]",
    "orn": "regs[{s}] | ~regs[{t}]",
    "xnor": "~(regs[{s}] ^ regs[{t}])",
    "addx2": "(regs[{s}] << 1) + regs[{t}]",
    "addx4": "(regs[{s}] << 2) + regs[{t}]",
    "addx8": "(regs[{s}] << 3) + regs[{t}]",
    "subx2": "(regs[{s}] << 1) - regs[{t}]",
    "subx4": "(regs[{s}] << 2) - regs[{t}]",
    "sltu": "1 if regs[{s}] < regs[{t}] else 0",
    "minu": "min(regs[{s}], regs[{t}])",
    "maxu": "max(regs[{s}], regs[{t}])",
    "mull": "regs[{s}] * regs[{t}]",
    "sll": "regs[{s}] << (regs[{t}] & 31)",
    "srl": "regs[{s}] >> (regs[{t}] & 31)",
    "rotl": "_rotl(regs[{s}], regs[{t}] & 31)",
    "rotr": "_rotr(regs[{s}], regs[{t}] & 31)",
}

_FUSE_R2 = {
    "mov": "regs[{s}]",
    "neg": "-regs[{s}]",
    "not": "~regs[{s}]",
    "zext8": "regs[{s}] & 255",
    "zext16": "regs[{s}] & 65535",
    "clz": "_clz(regs[{s}])",
    "ctz": "_ctz(regs[{s}])",
    "popc": "_popc(regs[{s}])",
    "bswap": "_bswap(regs[{s}])",
}

#: mnemonic -> (immediate fold, expression template) — folds match _EMITTERS.
_FUSE_IMM = {
    "addi": (lambda i: i & _M, "regs[{s}] + {k}"),
    "addmi": (lambda i: (i & _M) << 8, "regs[{s}] + {k}"),
    "andi": (lambda i: i & 0xFFF, "regs[{s}] & {k}"),
    "ori": (lambda i: i & 0xFFF, "regs[{s}] | {k}"),
    "xori": (lambda i: i & 0xFFF, "regs[{s}] ^ {k}"),
    "slli": (lambda i: i & 31, "regs[{s}] << {k}"),
    "srli": (lambda i: i & 31, "regs[{s}] >> {k}"),
    "roli": (lambda i: i & 31, "_rotl(regs[{s}], {k})"),
    "rori": (lambda i: i & 31, "_rotr(regs[{s}], {k})"),
}

#: signed compare/minmax forms: mnemonic -> result template over a/b temps.
_FUSE_SIGNED_R3 = {
    "slt": "1 if a{u} < b{u} else 0",
    "min": "min(a{u}, b{u}) & 4294967295",
    "max": "max(a{u}, b{u}) & 4294967295",
}

_FUSE_COND_MOVE = {
    "moveqz": "regs[{t}] == 0",
    "movnez": "regs[{t}] != 0",
    "movltz": "regs[{t}] & 2147483648",
    "movgez": "not regs[{t}] & 2147483648",
}

#: mnemonic -> (size, sign_extend, is_store) for the memory templates.
_FUSE_MEM = {
    "l32i": (4, False, False),
    "l16ui": (2, False, False),
    "l16si": (2, True, False),
    "l8ui": (1, False, False),
    "l8si": (1, True, False),
    "s32i": (4, False, True),
    "s16i": (2, False, True),
    "s8i": (1, False, True),
}


def _fuse_op_lines(op: tuple, dshift: int) -> Optional[list]:
    """Source statements executing this interior op inline, or None.

    ``None`` means "no inline form" — the block codegen then binds the
    op's (possibly specialized) semantics callable and emits a call.
    Memory templates append the D-cache replay with the line shift
    ``dshift`` folded in, mirroring the per-op dispatch order: address
    from pre-op registers, semantics, then the cache model.
    """
    mnemonic = op[OP_MNEMONIC]
    ins = op[OP_INS]
    u = op[OP_ADDR]  # unique per op: byte addresses never collide
    d, s, t = ins.rd, ins.rs, ins.rt

    mem = _FUSE_MEM.get(mnemonic)
    if mem is not None:
        size, signed, is_store = mem
        k = (ins.imm or 0) & _M
        limit = _PAGE_SIZE - size
        out = [
            f"a{u} = (regs[{s}] + {k}) & 4294967295",
            f"o{u} = a{u} & {_PAGE_MASK}",
        ]
        if is_store:
            value_mask = (1 << (size * 8)) - 1
            out += [
                f"if o{u} <= {limit}:",
                f"    p{u} = pages.get(a{u} >> {_PAGE_BITS})",
                f"    if p{u} is None:",
                f"        p{u} = bytearray({_PAGE_SIZE})",
                f"        pages[a{u} >> {_PAGE_BITS}] = p{u}",
                f"    p{u}[o{u}:o{u}+{size}] = "
                f"(regs[{t}] & {value_mask}).to_bytes({size}, 'little')",
                "else:",
                f"    state.memory.write(a{u}, regs[{t}], {size})",
            ]
        else:
            out += [
                f"if o{u} <= {limit}:",
                f"    p{u} = pages.get(a{u} >> {_PAGE_BITS})",
                f"    v{u} = 0 if p{u} is None else "
                f"int.from_bytes(p{u}[o{u}:o{u}+{size}], 'little')",
                "else:",
                f"    v{u} = state.memory.read(a{u}, {size})",
            ]
            if signed:
                sign_bit = 1 << (size * 8 - 1)
                ext_mask = (_M >> (size * 8)) << (size * 8)
                out.append(f"if v{u} & {sign_bit}: v{u} |= {ext_mask}")
            out.append(f"regs[{t}] = v{u}")
        out += [
            f"l{u} = a{u} >> {dshift}",
            f"if l{u} != dc[0]:",
            f"    dc[0] = l{u}",
            f"    if not dcache_access(a{u}):",
            "        dc[1] += 1",
        ]
        return out

    expr = _FUSE_R3.get(mnemonic)
    if expr is not None:
        return [f"regs[{d}] = ({expr.format(s=s, t=t)}) & 4294967295"]
    expr = _FUSE_R2.get(mnemonic)
    if expr is not None:
        return [f"regs[{d}] = ({expr.format(s=s)}) & 4294967295"]
    imm_form = _FUSE_IMM.get(mnemonic)
    if imm_form is not None:
        fold, expr = imm_form
        return [f"regs[{d}] = ({expr.format(s=s, k=fold(ins.imm))}) & 4294967295"]
    signed_form = _FUSE_SIGNED_R3.get(mnemonic)
    if signed_form is not None:
        return [
            f"a{u} = regs[{s}]",
            f"b{u} = regs[{t}]",
            f"if a{u} & 2147483648: a{u} -= 4294967296",
            f"if b{u} & 2147483648: b{u} -= 4294967296",
            f"regs[{d}] = {signed_form.format(u=u)}",
        ]
    cond = _FUSE_COND_MOVE.get(mnemonic)
    if cond is not None:
        return [f"if {cond.format(t=t)}: regs[{d}] = regs[{s}]"]
    if mnemonic == "sra":
        return [
            f"a{u} = regs[{s}]",
            f"if a{u} & 2147483648: a{u} -= 4294967296",
            f"regs[{d}] = (a{u} >> (regs[{t}] & 31)) & 4294967295",
        ]
    if mnemonic == "srai":
        return [
            f"a{u} = regs[{s}]",
            f"if a{u} & 2147483648: a{u} -= 4294967296",
            f"regs[{d}] = (a{u} >> {ins.imm & 31}) & 4294967295",
        ]
    if mnemonic in ("mulh", "mulhu"):
        out = [f"a{u} = regs[{s}]", f"b{u} = regs[{t}]"]
        if mnemonic == "mulh":
            out += [
                f"if a{u} & 2147483648: a{u} -= 4294967296",
                f"if b{u} & 2147483648: b{u} -= 4294967296",
            ]
        out.append(f"regs[{d}] = ((a{u} * b{u}) >> 32) & 4294967295")
        return out
    if mnemonic == "abs":
        return [
            f"a{u} = regs[{s}]",
            f"if a{u} & 2147483648: a{u} = 4294967296 - a{u}",
            f"regs[{d}] = a{u} & 4294967295",
        ]
    if mnemonic in ("sext8", "sext16"):
        bits = 8 if mnemonic == "sext8" else 16
        value_mask = (1 << bits) - 1
        sign_bit = 1 << (bits - 1)
        ext_mask = (_M >> bits) << bits
        return [
            f"v{u} = regs[{s}] & {value_mask}",
            f"regs[{d}] = (v{u} | {ext_mask}) if v{u} & {sign_bit} else v{u}",
        ]
    if mnemonic == "slti":
        return [
            f"a{u} = regs[{s}]",
            f"if a{u} & 2147483648: a{u} -= 4294967296",
            f"regs[{d}] = 1 if a{u} < {ins.imm} else 0",
        ]
    if mnemonic == "sltiu":
        return [f"regs[{d}] = 1 if regs[{s}] < {ins.imm & _M} else 0"]
    if mnemonic == "movi":
        return [f"regs[{d}] = {ins.imm & _M}"]
    if mnemonic == "movhi":
        return [f"regs[{d}] = {((ins.imm & 0x3FFFF) << 12) & _M}"]
    return None


def fuse_block(ops: tuple, block: tuple, dshift: int):
    """Generate the fused closure executing ``block``'s ops inline.

    ``ops`` is the executable's op table and ``dshift`` the D-cache line
    shift of the config the block was lowered for.  Signature of the
    result: ``fn(state, ic, dc, icache_access, dcache_access)`` where
    ``ic``/``dc`` are two-slot lists ``[last_line, misses]`` shared with
    the dispatch loop's per-op side-exit path, so the same-line memo
    carries seamlessly across fused and per-op execution.  The dispatch
    loop calls this on a block's second entry and keeps the result in
    :attr:`SuperopProgram.fused`.
    """
    start = block[BLK_START]
    end = start + block[BLK_LEN] - 1
    namespace = {
        "_rotl": rotate_left,
        "_rotr": rotate_right,
        "_clz": count_leading_zeros,
        "_ctz": count_trailing_zeros,
        "_popc": popcount,
        "_bswap": byte_swap,
    }
    body = ["    regs = state.regs"]
    if any(ops[i][OP_MEM] for i in range(start, end + 1)):
        body.append("    pages = state.memory._pages")
    for line, fetch_addr in block[BLK_IFETCH]:
        body += [
            f"    if {line} != ic[0]:",
            f"        ic[0] = {line}",
            f"        if not icache_access({fetch_addr}):",
            "            ic[1] += 1",
        ]
    for i in range(start, end + 1):
        op = ops[i]
        lines = _fuse_op_lines(op, dshift)
        if lines is None:
            namespace[f"_c{i}"] = op[OP_SEM]
            namespace[f"_i{i}"] = op[OP_INS]
            lines = [f"_c{i}(state, _i{i})"]
        body += ["    " + stmt for stmt in lines]
    source = (
        "def _superop(state, ic, dc, icache_access, dcache_access):\n"
        + "\n".join(body)
    )
    exec(
        compile(source, f"<superop@{ops[start][OP_ADDR]:#x}>", "exec"),
        namespace,
    )
    return namespace["_superop"]


def compile_superops(
    executable: ExecutableProgram, config: "ProcessorConfig"
) -> SuperopProgram:
    """Find the executable's maximal interior runs: the superop blocks.

    Block leaders are the static control-flow join points: the program
    entry, every static branch/jump/call target, and the op after every
    non-interior op.  Dynamic targets (``jx``/``callx``/``ret``) that
    land mid-block are handled by the dispatch loop, which walks per-op
    until it reaches the next leader.

    Each block folds, at compile time:

    * **steps** — the semantics calls, with straight ALU runs packed into
      one ``(0, ((sem, ins), ...))`` step and each memory op kept as a
      ``(1, sem, ins, base_reg, imm)`` step so the dispatch loop can read
      the base register before semantics clobber it and replay the
      D-cache access after, exactly as the per-op path does;
    * **ifetch** — the I-line transition sequence at this config's line
      granularity: intra-block fetch addresses are strictly increasing,
      so consecutive same-line fetches collapse exactly like the per-op
      same-line memo (uncached ops never touch the I-cache and are
      excluded; their fetch penalty is count-derived at aggregation);
    * **interlocks** — load-use stalls between ops inside the block,
      a static property of adjacent (load dests, source regs) pairs.

    No code is generated here: a block's fused closure is made on its
    second entry (see :attr:`SuperopProgram.fused`).
    """
    ops = executable.ops
    pc_map = executable.pc_to_index
    n = len(ops)
    ishift = config.icache.line_bytes.bit_length() - 1

    leaders = set()
    entry_idx = pc_map.get(executable.entry, -1)
    if entry_idx >= 0:
        leaders.add(entry_idx)
    if n:
        leaders.add(0)
    for i, op in enumerate(ops):
        if not op[OP_INTERIOR] and i + 1 < n:
            leaders.add(i + 1)
        if op[OP_BRANCH] or op[OP_MNEMONIC] in ("j", "call"):
            target_idx = pc_map.get(op[OP_INS].imm, -1)
            if target_idx >= 0:
                leaders.add(target_idx)

    blocks: list[tuple] = []
    block_at: list[Optional[tuple]] = [None] * n
    for start in sorted(leaders):
        if not ops[start][OP_INTERIOR]:
            continue
        end = start
        while True:
            fall = ops[end][OP_FALL_IDX]
            if fall < 0 or fall in leaders or not ops[fall][OP_INTERIOR]:
                break
            end = fall

        steps: list[tuple] = []
        run: list[tuple] = []
        interlocks = 0
        ifetch: list[tuple[int, int]] = []
        last_line = -1
        for i in range(start, end + 1):
            op = ops[i]
            if op[OP_CACHED]:
                line = op[OP_ADDR] >> ishift
                if line != last_line:
                    last_line = line
                    ifetch.append((line, op[OP_ADDR]))
            if i > start and ops[i - 1][OP_LOAD_DESTS]:
                dests = ops[i - 1][OP_LOAD_DESTS]
                if any(src in dests for src in op[OP_SRCS]):
                    interlocks += 1
            if op[OP_MEM]:
                if run:
                    steps.append((0, tuple(run)))
                    run = []
                steps.append((1, op[OP_SEM], op[OP_INS], op[OP_SRC0], op[OP_IMM]))
            else:
                run.append((op[OP_SEM], op[OP_INS]))
        if run:
            steps.append((0, tuple(run)))

        block = (
            len(blocks),
            start,
            end - start + 1,
            tuple(steps),
            tuple(ifetch),
            ops[start][OP_SRCS],
            interlocks,
            ops[end][OP_LOAD_DESTS],
            ops[end][OP_FALL_IDX],
            ops[end][OP_ADDR],
        )
        blocks.append(block)
        block_at[start] = block

    return SuperopProgram(
        program_digest=executable.program_digest,
        config_fingerprint=executable.config_fingerprint,
        blocks=tuple(blocks),
        block_at=tuple(block_at),
        fused=[None] * n,
    )


def describe_invalid_pc(
    program_name: str,
    pc: int,
    executable: Optional[ExecutableProgram] = None,
    last_retired_addr: Optional[int] = None,
) -> str:
    """Diagnostic for a pc with no instruction: where did the jump come from?

    Keeps the historical ``pc=... is not a valid instruction address``
    phrasing (matched by callers and tests) and appends the nearest
    preceding label/symbol plus the address of the last retired
    instruction, so wild jumps in user programs are debuggable.
    """
    message = f"{program_name}: pc={pc:#010x} is not a valid instruction address"
    context: list[str] = []
    if executable is not None:
        near = executable.nearest_symbol(pc)
        if near is not None:
            name, offset = near
            where = f"{name!r}" if offset == 0 else f"{name!r}+{offset:#x}"
            context.append(f"nearest preceding symbol: {where}")
        else:
            context.append("before the first symbol")
    if last_retired_addr is not None:
        context.append(f"last retired instruction at {last_retired_addr:#010x}")
    else:
        context.append("no instructions retired")
    return f"{message} ({'; '.join(context)})"


class CompilationCache:
    """LRU cache of :class:`ExecutableProgram` lowerings across runs.

    Keys are ``(program digest, config fingerprint)`` — pure content, so
    a re-assembled identical program or a re-built identical config hits.
    The counters are part of the public contract: design-space exploration
    asserts exactly one compilation per (program, config-content) pair via
    :attr:`compilations`.

    A third tier, ``build``, holds the geometry- and operating-point-free
    pieces of a design point (compiled extensions, assembled program)
    under a caller-chosen content key, so an exploration builds each
    distinct one once (see :meth:`get_or_build`).

    Thread-safe: the estimation service's worker pool resolves lowerings
    from concurrent threads, so every mutation of the LRU order and the
    counters happens under one lock.  ``get_or_compile`` holds the lock
    across the compilation itself — that serializes first-time lowerings
    of *different* pairs, but guarantees the one-compilation-per-pair
    invariant under races (and compilation is a one-time cost by design).
    The ``build`` tier has its own lock and builds outside it, so a
    build-tier lookup (the estimation service resolves request keys on
    its event loop) never waits behind a lowering or another build.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("compilation cache needs room for at least one entry")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple[str, str], ExecutableProgram]" = OrderedDict()
        #: superop artifact tier: same key space, independent LRU order —
        #: a pair that only ever runs per-op never pays block lowering.
        self._superops: "OrderedDict[tuple[str, str], SuperopProgram]" = OrderedDict()
        #: design-point build tier: caller-chosen content key -> built value
        self._builds: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self._build_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.compilations = 0
        self.evictions = 0
        self.superop_hits = 0
        self.superop_misses = 0
        self.superop_compilations = 0
        self.superop_evictions = 0
        self.build_hits = 0
        self.build_misses = 0
        self.builds = 0
        self.build_evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compile(
        self, config: "ProcessorConfig", program: "Program"
    ) -> ExecutableProgram:
        """Return the cached lowering for the pair, compiling on first use."""
        key = (program.digest(), config.fingerprint())
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
            executable = compile_program(config, program)  # may raise; not cached
            self.compilations += 1
            self._entries[key] = executable
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            return executable

    def get_or_compile_superops(
        self,
        config: "ProcessorConfig",
        program: "Program",
        executable: Optional[ExecutableProgram] = None,
    ) -> SuperopProgram:
        """Return the cached block lowering for the pair, fusing on first use.

        Pass ``executable`` when the per-op lowering is already in hand to
        skip the ops-tier probe; it must carry the same digest/fingerprint
        pair (the :class:`~repro.xtcore.iss.Simulator` constructor enforces
        that before calling here).
        """
        if executable is None:
            executable = self.get_or_compile(config, program)
        key = (executable.program_digest, executable.config_fingerprint)
        with self._lock:
            cached = self._superops.get(key)
            if cached is not None:
                self._superops.move_to_end(key)
                self.superop_hits += 1
                return cached
            self.superop_misses += 1
            superops = compile_superops(executable, config)
            self.superop_compilations += 1
            self._superops[key] = superops
            if len(self._superops) > self.maxsize:
                self._superops.popitem(last=False)
                self.superop_evictions += 1
            return superops

    def get_or_build(self, key: Hashable, build: Callable[[], _Built]) -> _Built:
        """Return the build-tier value for ``key``, calling ``build()`` on first use.

        ``key`` must name the built value's content (e.g. a workload and
        implementation, or a manifest digest), never an object identity.
        The value is shared by every caller, so it must be immutable in
        use.  A ``build()`` that raises is not cached: the next call
        retries it, so each failing caller sees its own exception.
        ``build()`` runs outside the lock; callers racing on one missing
        key may each build, and all of them get the first value stored.
        """
        with self._build_lock:
            if key in self._builds:
                self._builds.move_to_end(key)
                self.build_hits += 1
                return self._builds[key]
            self.build_misses += 1
        value = build()  # may raise; not cached
        with self._build_lock:
            self.builds += 1
            if key in self._builds:
                return self._builds[key]
            self._builds[key] = value
            if len(self._builds) > self.maxsize:
                self._builds.popitem(last=False)
                self.build_evictions += 1
            return value

    def put(self, executable: ExecutableProgram) -> None:
        """Insert a pre-built lowering (e.g. compiled in a parent process)."""
        key = (executable.program_digest, executable.config_fingerprint)
        with self._lock:
            self._entries[key] = executable
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock, self._build_lock:
            self._entries.clear()
            self._superops.clear()
            self._builds.clear()
            self.hits = 0
            self.misses = 0
            self.compilations = 0
            self.evictions = 0
            self.superop_hits = 0
            self.superop_misses = 0
            self.superop_compilations = 0
            self.superop_evictions = 0
            self.build_hits = 0
            self.build_misses = 0
            self.builds = 0
            self.build_evictions = 0

    def info(self) -> dict:
        """Counters, overall and per artifact tier.

        The top-level keys keep their historical meaning (the per-op
        ``ops`` tier, which every simulation resolves through); the
        ``tiers`` breakdown adds the superop block-artifact tier and the
        design-point ``build`` tier (its ``compilations`` count builds).
        """
        with self._lock, self._build_lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "compilations": self.compilations,
                "evictions": self.evictions,
                "tiers": {
                    "ops": {
                        "entries": len(self._entries),
                        "hits": self.hits,
                        "misses": self.misses,
                        "compilations": self.compilations,
                        "evictions": self.evictions,
                    },
                    "superop": {
                        "entries": len(self._superops),
                        "hits": self.superop_hits,
                        "misses": self.superop_misses,
                        "compilations": self.superop_compilations,
                        "evictions": self.superop_evictions,
                    },
                    "build": {
                        "entries": len(self._builds),
                        "hits": self.build_hits,
                        "misses": self.build_misses,
                        "compilations": self.builds,
                        "evictions": self.build_evictions,
                    },
                },
            }

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"CompilationCache({info['entries']}/{self.maxsize} entries, "
            f"{info['hits']} hits / {info['misses']} misses, "
            f"{info['compilations']} compilations)"
        )


#: Process-wide cache used by :class:`repro.xtcore.Simulator` (and thereby
#: ``run_session``).  Forked worker processes inherit the parent's entries
#: copy-on-write, which is how the DSE pool compiles once pre-fork.
_GLOBAL_CACHE = CompilationCache()


def compilation_cache() -> CompilationCache:
    """The process-wide compilation cache (counters included)."""
    return _GLOBAL_CACHE
