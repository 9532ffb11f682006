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
* :func:`compile_superops` cuts the op table into **segments** (a run of
  interior ops from a control-flow leader, ended by a foldable
  conditional branch or ``j`` when one follows) and chains them into
  **regions** headed by a segment: a *loop region* runs from its header
  through contiguous segments to the last edge back to it, with only
  forward edges or exits in between and no calls; any other region is
  its header's segment alone.  Region descriptors (``BLK_*``: header,
  length, segments, header sources, loop flag, fall-through load
  dests, next op, last address) and segment descriptors (``SEG_*``:
  start, end, I-line transitions, internal interlocks, taken target)
  are flat tuples; :func:`fuse_region` generates one closure per region
  once the region has retired enough ops op by op to pay for it (the
  payback rule of :func:`repro.xtcore.iss.dispatch`);
* :class:`CompilationCache` memoizes those lowerings across runs, keyed
  by ``(Program.digest(), ProcessorConfig.lowering_key)`` — content
  hashes of exactly what the lowering reads, so equal-content programs
  and configs that differ only in caches or clock share one compilation
  no matter how many objects or processes spell them;
* :func:`describe_invalid_pc` turns a wild program counter into an
  actionable diagnostic (nearest preceding symbol, last retired address).

The dispatch loops that consume this IR live in :mod:`repro.xtcore.iss`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from bisect import bisect_left, bisect_right
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
OP_INTERIOR = 20  #: straight-line op: may run inside a fused region segment
OP_EDGE = 21  #: specialized conditional branch or ``j``: may end a region segment

#: Generic (unspecialized) mnemonics proven safe as superop interiors:
#: their semantics never read ``ctx.pc``, never redirect control, never
#: halt, and touch only registers through the bounds-checked accessors —
#: so fusing them into a region is observationally identical to per-op
#: dispatch (a fault simply propagates out of the region).
_SAFE_GENERIC_INTERIOR = frozenset({"quos", "quou", "rems", "remu"})

#: Classes whose ops may be segment interiors.  JUMP/BRANCH redirect the
#: pc and SYSTEM covers ``halt``/``break`` (run terminators) — those end
#: a segment.  CUSTOM is handled separately: TIE-compiled semantics carry a
#: ``tie_straightline`` marker proving they are pure dataflow.
_INTERIOR_CLASSES = (
    InstructionClass.ARITH,
    InstructionClass.LOAD,
    InstructionClass.STORE,
)


@dataclasses.dataclass(frozen=True)
class ExecutableProgram:
    """A :class:`Program` lowered against one :attr:`ProcessorConfig.lowering_key`.

    Index-addressed: ``ops[i]`` executes the instruction at ``addrs[i]``,
    and sequential fall-through is ``ops[i][OP_FALL_IDX]`` instead of a
    dict probe on the next byte address.  The op table is immutable once
    built, so one instance is safely shared across runs, sessions, every
    config with the same lowering key, and forked workers.  The region
    lowerings (:meth:`superops`) fill in on first use.
    """

    program_name: str
    program_digest: str
    lowering_key: str
    entry: int
    ops: tuple[tuple, ...]
    addrs: tuple[int, ...]
    pc_to_index: dict[int, int]
    #: ``(addr, name)`` pairs sorted by address — diagnostics only.
    symbols_by_addr: tuple[tuple[int, str], ...]
    #: every source/dest register of every op is < num_registers, so the
    #: dispatch loops may read the register file without bounds checks.
    regs_in_range: bool = True
    #: ``(ishift, dshift)`` -> :class:`SuperopProgram`, see :meth:`superops`
    _superops: dict = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.ops)

    def superops(self, ishift: int, dshift: int) -> "SuperopProgram":
        """The region lowering at these I/D line shifts, built on first use.

        Segments depend on ``ishift`` alone (their I-line sequences) and
        fused closures bake in ``dshift``, so one lowering serves every
        config with these line sizes.  Threads racing to build one keep
        the first stored.
        """
        lowering = self._superops.get((ishift, dshift))
        if lowering is None:
            lowering = self._superops.setdefault(
                (ishift, dshift), compile_superops(self, ishift, dshift)
            )
        return lowering

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
            f"ExecutableProgram({self.program_name}: "
            f"{len(self.ops)} ops, key {self.program_digest[:8]}/"
            f"{self.lowering_key[:8]})"
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


def _mnemonic_facts(definition, penalty: int, gpr_mnemonics: frozenset) -> tuple:
    """What an op's record takes from its definition alone, once per lowering.

    ``(definition, emitter, generic semantics, timing, is memory op, is
    BRANCH, is LOAD, custom kind, base energy class, interior when
    specialized, interior when generic, edge when specialized)``, where
    timing is :meth:`~repro.isa.instructions.InstructionDef.resolve_timing`
    at ``penalty``.
    """
    iclass = definition.iclass
    mnemonic = definition.mnemonic
    custom = iclass is InstructionClass.CUSTOM
    semantics = definition.semantics
    if isinstance(semantics, LazySemantics):
        # The op table holds the generated closure itself, so neither
        # dispatch loop pays a forwarding call per retire.
        semantics = semantics.resolve()
    timing = definition.resolve_timing(penalty)
    # Interior ops are provably straight-line: they never redirect the
    # pc, never halt, and never read ``ctx.pc``, so a whole run of them
    # can execute as one fused superop call (see compile_superops).
    # Custom instructions qualify when the TIE compiler marked their
    # semantics straight-line (pure dataflow by construction).
    interior = iclass in _INTERIOR_CLASSES
    return (
        definition,
        None if custom else _EMITTERS.get(mnemonic),
        semantics,
        timing,
        iclass in (InstructionClass.LOAD, InstructionClass.STORE),
        iclass is InstructionClass.BRANCH,
        iclass is InstructionClass.LOAD,
        (2 if mnemonic in gpr_mnemonics else 1) if custom else 0,
        timing[0] in BASE_ENERGY_CLASSES,
        interior,
        (interior and mnemonic in _SAFE_GENERIC_INTERIOR)
        or (custom and getattr(definition.semantics, "tie_straightline", False)),
        mnemonic in _EDGE_MNEMONICS,
    )


def compile_program(config: "ProcessorConfig", program: "Program") -> ExecutableProgram:
    """Lower ``program`` against ``config`` into an :class:`ExecutableProgram`.

    Reads only what :attr:`ProcessorConfig.lowering_key` hashes, so the
    result serves every config with that key.  Raises
    :class:`SimulationError` when the program uses a mnemonic that is not
    in the processor's ISA (same contract the per-run decoder had).
    """
    isa = config.isa
    penalty = config.timing.branch_taken_penalty
    gpr_mnemonics = frozenset(
        mnemonic
        for mnemonic, impl in config.extension_index.items()
        if impl.accesses_gpr
    )

    instructions = program.instructions
    addrs = tuple(sorted(instructions))
    pc_to_index = {addr: index for index, addr in enumerate(addrs)}
    uncached: set[int] = set()
    for span in program.uncached_ranges:
        uncached.update(
            addrs[bisect_left(addrs, span.start) : bisect_left(addrs, span.end)]
        )
    facts_of: dict[str, tuple] = {}
    ops: list[tuple] = []
    num_registers = config.num_registers
    regs_in_range = True
    for addr in addrs:
        ins = instructions[addr]
        mnemonic = ins.mnemonic
        facts = facts_of.get(mnemonic)
        if facts is None:
            try:
                definition = isa.lookup(mnemonic)
            except KeyError as exc:
                raise SimulationError(
                    f"{program.name}: instruction {mnemonic!r} at {addr:#x} "
                    f"is not in processor {config.name}'s ISA"
                ) from exc
            facts = facts_of[mnemonic] = _mnemonic_facts(definition, penalty, gpr_mnemonics)
        (
            definition, emitter, semantics, timing, is_mem, is_branch, is_load,
            custom_kind, base_class, interior, generic_interior, edge,
        ) = facts
        srcs = definition.source_registers(ins)
        dests = definition.dest_registers(ins)
        if regs_in_range:
            for reg in srcs + dests:
                if reg < 0 or reg >= num_registers:
                    regs_in_range = False
                    break
        specialized = emitter(ins, addr, num_registers) if emitter is not None else None
        ops.append(
            (
                specialized or semantics,
                ins,
                srcs,
                srcs[0] if srcs else -1,
                ins.imm or 0,
                is_mem,
                addr not in uncached,
                is_branch,
                dests if is_load else (),
                pc_to_index.get(addr + INSTRUCTION_BYTES, -1),
                addr,
                mnemonic,
                *timing,
                dests[0] if dests else -1,
                custom_kind,
                bool(srcs),
                base_class,
                interior if specialized is not None else generic_interior,
                specialized is not None and edge,
            )
        )

    return ExecutableProgram(
        program_name=program.name,
        program_digest=program.digest(),
        lowering_key=config.lowering_key,
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
# Superop lowering: fusing loop regions into single-dispatch closures
# ---------------------------------------------------------------------------
#
# A per-op dispatch loop pays one Python dispatch iteration per
# retired instruction: budget check, op-tuple load, I-cache memo,
# interlock scan, pc bookkeeping, successor resolution.  Inside a run of
# *interior* ops (see OP_INTERIOR) every one of those outcomes is a
# compile-time constant, and a specialized conditional branch or ``j``
# (OP_EDGE) only picks between two static successors.  compile_superops
# cuts the op table into **segments** — a run of interior ops from a
# leader, ended by an edge op when one follows — and chains them into
# **regions**, each run to its exit by one generated closure:
#
# * a **loop region** is a header segment plus the contiguous segments up
#   to the last edge back to the header, where every edge in between
#   goes back to the header, forward inside the region, or out of it
#   (an exit).  No ``call``/``ret``/``jx``/``callx``/``halt`` or other
#   non-interior op appears, so an iteration retires at most BLK_LEN ops;
# * any other region is **straight**: the header segment alone, its
#   ending branch (if any) folded in as the exit choice, when it has at
#   least two ops (one fused call runs a single op no faster).
#
# The dispatch loop in :mod:`repro.xtcore.iss` pays its bookkeeping once
# per region *call* instead of once per instruction — and anything that
# could make the folding observable (faults, budget expiry, observers)
# either stays exact inside the closure or goes to the per-op path.

#: Field indices of one region descriptor (flat tuple, same rationale as
#: the OP_* layout above).
BLK_START = 0  #: op index of the header (first op of the first segment)
BLK_LEN = 1  #: ops in the region: the most one iteration can retire
BLK_SEGMENTS = 2  #: the region's segment descriptors, in address order
BLK_FIRST_SRCS = 3  #: source regs of the header op (incoming-interlock check)
BLK_LOOP = 4  #: True when some edge in the region returns to the header
BLK_LOAD_DESTS = 5  #: load dests live after a fall-through exit, else ()
BLK_NEXT_IDX = 6  #: op index after the region's last op, or -1
BLK_LAST_ADDR = 7  #: byte address of the last instruction (diagnostics)

#: Field indices of one segment descriptor.  A segment's extent depends
#: only on its start, so :attr:`SuperopProgram.segment_at` is shared by
#: every region that passes through it.
SEG_START = 0  #: op index of the first op
SEG_END = 1  #: op index of the last op (the edge op when there is one)
SEG_IFETCH = 2  #: ``(line, addr)`` per distinct I-line touched, in order
SEG_INTERLOCKS = 3  #: load-use interlocks between the segment's own ops
SEG_TARGET = 4  #: op index an ending edge jumps to when taken, else -1


@dataclasses.dataclass(frozen=True)
class SuperopProgram:
    """Region lowering of an :class:`ExecutableProgram` at one line size pair.

    ``block_at[i]`` is the region descriptor whose header is ``ops[i]``
    (or None when op ``i`` heads none), so the dispatch loop can probe
    region entry with one tuple index per control transfer;
    ``segment_at[i]`` is the segment starting at op ``i`` (or None).
    Derived purely from the executable plus the I/D line shifts, and
    kept on the executable (:meth:`ExecutableProgram.superops`), so one
    instance is shared across runs, threads and forked workers.

    The descriptors are immutable; ``fused[i]``, the slot of the region
    headed by op ``i``, fills on demand (:func:`repro.xtcore.iss.dispatch`):
    an int counting the ops the region has retired op by op (0 before
    its first entry), then, once that count has paid for the code, the
    closure from :func:`fuse_region`.  Races between threads on one slot
    are harmless: a lost count only delays fusion, each thread generates
    an equivalent closure and either may be kept, and fused and per-op
    execution retire identically.
    """

    ishift: int
    dshift: int
    blocks: tuple[tuple, ...]
    block_at: tuple[Optional[tuple], ...]
    segment_at: tuple[Optional[tuple], ...]
    fused: list = dataclasses.field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def fused_ops(self) -> int:
        """Static op count covered by segments (fusion coverage metric)."""
        return sum(
            seg[SEG_END] - seg[SEG_START] + 1
            for seg in self.segment_at
            if seg is not None
        )

    def __repr__(self) -> str:
        loops = sum(1 for block in self.blocks if block[BLK_LOOP])
        return (
            f"SuperopProgram({len(self.blocks)} blocks over "
            f"{self.fused_ops}/{len(self.block_at)} ops, {loops} loops, "
            f"line shifts {self.ishift}/{self.dshift})"
        )


# Inline source templates for the superop region codegen.  Each template
# reproduces its specializer closure's body exactly — same masks, same
# signedness windows, same single-page memory fast path — so a fused
# region is observationally identical to calling the per-op closures in
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

    ``None`` means "no inline form" — the region codegen then binds the
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
        if size == 1:  # a byte never straddles a page: index it directly
            out.append(f"p{u} = pages.get(a{u} >> {_PAGE_BITS})")
            if is_store:
                out += [
                    f"if p{u} is None:",
                    f"    p{u} = bytearray({_PAGE_SIZE})",
                    f"    pages[a{u} >> {_PAGE_BITS}] = p{u}",
                    f"p{u}[o{u}] = regs[{t}] & 255",
                ]
            else:
                out.append(f"v{u} = 0 if p{u} is None else p{u}[o{u}]")
                if signed:
                    out.append(f"if v{u} & 128: v{u} |= {_M >> 8 << 8}")
                out.append(f"regs[{t}] = v{u}")
        elif is_store:
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


#: Conditional-branch taken tests over the pre-op registers, with the
#: same operands, signedness and bit tests as the ``_branch*`` emitters:
#: unsigned forms over ``regs`` directly ...
_FUSE_BRANCH = {
    "beq": "regs[{s}] == regs[{t}]",
    "bne": "regs[{s}] != regs[{t}]",
    "bltu": "regs[{s}] < regs[{t}]",
    "bgeu": "regs[{s}] >= regs[{t}]",
    "beqz": "regs[{s}] == 0",
    "bnez": "regs[{s}] != 0",
    "bltz": "regs[{s}] & 2147483648",
    "bgez": "not regs[{s}] & 2147483648",
    "bbs": "(regs[{s}] >> {k}) & 1",
    "bbc": "not (regs[{s}] >> {k}) & 1",
}
#: ... signed two-register compares over sign-converted temps ...
_FUSE_BRANCH_SIGNED = {"blt": "<", "bge": ">="}
#: ... and signed ``rs`` against the signed immediate folded into ``rt``.
_FUSE_BRANCH_IMM = {"beqi": "==", "bnei": "!=", "blti": "<", "bgei": ">="}

#: Mnemonics that may end a region segment (OP_EDGE when specialized).
_EDGE_MNEMONICS = frozenset(
    {"j", *_FUSE_BRANCH, *_FUSE_BRANCH_SIGNED, *_FUSE_BRANCH_IMM}
)


def _fuse_branch_test(op: tuple) -> tuple[list, str]:
    """``(statements, condition)`` that is true when this branch is taken."""
    mnemonic = op[OP_MNEMONIC]
    ins = op[OP_INS]
    u = op[OP_ADDR]
    s, t = ins.rs, ins.rt
    expr = _FUSE_BRANCH.get(mnemonic)
    if expr is not None:
        return [], expr.format(s=s, t=t, k=(t or 0) & 31)
    lines = [f"a{u} = regs[{s}]", f"if a{u} & 2147483648: a{u} -= 4294967296"]
    compare = _FUSE_BRANCH_SIGNED.get(mnemonic)
    if compare is not None:
        lines += [f"b{u} = regs[{t}]", f"if b{u} & 2147483648: b{u} -= 4294967296"]
        return lines, f"a{u} {compare} b{u}"
    b = t - _TWO32 if t & _SIGN_BIT else t
    return lines, f"a{u} {_FUSE_BRANCH_IMM[mnemonic]} {b}"


def _load_use(ops: tuple, producer: int, consumer: int) -> int:
    """1 when op ``consumer`` reads a register op ``producer`` loads, else 0."""
    dests = ops[producer][OP_LOAD_DESTS]
    return int(bool(dests) and any(src in dests for src in ops[consumer][OP_SRCS]))


def fuse_region(ops: tuple, region: tuple, dshift: int):
    """Generate the closure running ``region`` from its header to an exit.

    ``ops`` is the executable's op table and ``dshift`` the D-cache line
    shift of the lowering.  Signature of the result: ``fn(state, ic, dc,
    icache_access, dcache_access, segment_counts, taken_counts, budget)
    -> (next_idx, retired, interlocks)``.  ``ic``/``dc`` are two-slot
    lists ``[last_line, misses]`` shared with the dispatch loop's per-op
    path, so the same-line memo carries seamlessly across fused and
    per-op execution.  The closure counts executions per segment and
    taken edges in locals and adds them to ``segment_counts`` (keyed by
    segment start) and ``taken_counts`` once, at exit; interlocks on
    every edge inside the region are compile-time constants per unit
    executed.  A loop region runs at most the worst-case iterations
    (BLK_LEN ops each) that fit in ``budget`` and then exits at its
    header; the caller enters a region only while one more worst-case
    iteration fits, so the per-op path raises
    :class:`SimulationLimitExceeded` at the exact instruction.  The dispatch loop
    calls this once the region has retired enough ops op by op to pay
    for it, and keeps the result in :attr:`SuperopProgram.fused`.  Each
    call counts one region and its generation time in the process-wide
    :func:`compilation_cache` (``regions_fused``, ``fuse_ms``).
    """
    began = time.perf_counter()
    head = region[BLK_START]
    length = region[BLK_LEN]
    segments = region[BLK_SEGMENTS]
    loop = region[BLK_LOOP]
    last = segments[-1][SEG_END]
    namespace = {
        "_rotl": rotate_left,
        "_rotr": rotate_right,
        "_clz": count_leading_zeros,
        "_ctz": count_trailing_zeros,
        "_popc": popcount,
        "_bswap": byte_swap,
    }

    # Units: runs of segments entered only by falling through from the
    # one before.  A unit that only the conditional branch just before it
    # can jump over, and that nothing jumps to, runs in that branch's
    # untaken arm.  Any other unit an edge can jump over runs under a
    # guard on ``s``, the number of the next unit to run: every transfer
    # that lands on or jumps over a guarded unit sets ``s``, so a guard
    # never reads a stale ``s``.
    inner = {seg[SEG_TARGET] for seg in segments if head < seg[SEG_TARGET] <= last}
    units: list[list[tuple]] = []
    for seg in segments:
        if units and seg[SEG_START] not in inner and units[-1][-1][SEG_TARGET] < 0:
            units[-1].append(seg)
        else:
            units.append([seg])
    number = {unit[0][SEG_START]: n for n, unit in enumerate(units)}
    ends = [ops[unit[-1][SEG_END]] for unit in units]
    crossed: list[set[int]] = [set() for _ in units]  # units whose edge skips it
    for n, unit in enumerate(units):
        target = unit[-1][SEG_TARGET]
        if target in inner:
            for m in range(n + 1, number[target]):
                crossed[m].add(n)
    nested = [
        crossed[n] == {n - 1}
        and units[n][0][SEG_START] not in inner
        and ends[n - 1][OP_MNEMONIC] != "j"
        for n in range(len(units))
    ]
    guarded = [bool(crossed[n]) and not nested[n] for n in range(len(units))]

    # Per-unit execution counters.  A unit no edge can jump over, with
    # no exit or back-edge before it, runs once per iteration, so it
    # shares the header's counter ``e0``.  A branch whose untaken arm is
    # a nested unit was taken as often as its unit ran without the other;
    # the loop's closing edge, as often as its unit ran, less one when
    # the loop left through its untaken arm (when no other exit goes
    # there too).
    counters: list[str] = []
    shared = True
    for n, unit in enumerate(units):
        counters.append("e0" if shared and not crossed[n] else f"e{n}")
        target = unit[-1][SEG_TARGET]
        if target >= 0 and target not in inner:
            shared = False
    fall = ends[-1][OP_FALL_IDX]
    other_targets = {unit[-1][SEG_TARGET] for unit in units[:-1]}
    taken_counts = {}  # edge op index -> taken-count expression
    for n, unit in enumerate(units):
        end = unit[-1][SEG_END]
        if unit[-1][SEG_TARGET] < 0:
            continue
        if n + 1 < len(units) and nested[n + 1]:
            taken_counts[end] = f"{counters[n]} - e{n + 1}"
        elif loop and n + 1 == len(units) and ends[n][OP_MNEMONIC] == "j":
            taken_counts[end] = counters[n]
        elif loop and n + 1 == len(units) and fall not in other_targets:
            taken_counts[end] = f"{counters[n]} - (r == {fall})"
        else:
            taken_counts[end] = f"t{end}"
    sizes: dict[str, int] = {}  # counter -> ops retired per count
    stalls: dict[str, int] = {}  # counter -> interlocks per count
    for n, unit in enumerate(units):
        count = sum(seg[SEG_INTERLOCKS] for seg in unit)
        count += sum(_load_use(ops, a[SEG_END], b[SEG_START]) for a, b in zip(unit, unit[1:]))
        if unit[-1][SEG_TARGET] < 0 and n + 1 < len(units):
            count += _load_use(ops, unit[-1][SEG_END], units[n + 1][0][SEG_START])
        size = sum(seg[SEG_END] - seg[SEG_START] + 1 for seg in unit)
        sizes[counters[n]] = sizes.get(counters[n], 0) + size
        stalls[counters[n]] = stalls.get(counters[n], 0) + count

    def weighted(per_count: dict) -> str:
        terms = [
            name if k == 1 else f"{name} * {k}" for name, k in per_count.items() if k
        ]
        return " + ".join(terms) or "0"

    retired = weighted(sizes)
    interlocks = weighted(stalls)

    def leave(idx: int) -> list:
        """Statements exiting the region to op ``idx``."""
        if loop:
            return [f"r = {idx}", "break"]
        return [f"return ({idx}, {length}, {stalls['e0']})"]

    def move(src: int, dest: int) -> list:
        """Statements for a transfer from unit ``src`` forward to unit ``dest``."""
        if any(guarded[m] for m in range(src + 1, dest + 1)):
            return [f"s = {dest}"]
        return []

    def fetch(line: int, fetch_addr: int) -> list:
        return [
            f"if {line} != ic[0]:",
            f"    ic[0] = {line}",
            f"    if not icache_access({fetch_addr}):",
            "        ic[1] += 1",
        ]

    def emit(n: int, successor: list) -> list:
        """Source of unit ``n``; ``successor`` is a nested next unit's source."""
        unit = units[n]
        if not loop:
            lines = [f"sc[{head}] += 1"]
        elif n and counters[n] == f"e{n}":
            lines = [f"e{n} += 1"]
        else:
            lines = []
        for seg in unit:
            for line, fetch_addr in seg[SEG_IFETCH]:
                lines += fetch(line, fetch_addr)
            interior_end = seg[SEG_END] if seg[SEG_TARGET] >= 0 else seg[SEG_END] + 1
            for i in range(seg[SEG_START], interior_end):
                op_lines = _fuse_op_lines(ops[i], dshift)
                if op_lines is None:
                    namespace[f"_c{i}"] = ops[i][OP_SEM]
                    namespace[f"_i{i}"] = ops[i][OP_INS]
                    op_lines = [f"_c{i}(state, _i{i})"]
                lines += op_lines
        end = unit[-1][SEG_END]
        target = unit[-1][SEG_TARGET]
        if n + 1 == len(units):
            onward = leave(ends[n][OP_FALL_IDX])
        elif nested[n + 1]:
            onward = successor
        else:
            onward = move(n, n + 1)
        if target < 0:
            return lines + onward
        if loop and n + 1 == len(units):
            # The loop body ends with its edge back to the header, so
            # falling off the body repeats it.
            lines += [f"t{end} += 1"] if taken_counts[end] == f"t{end}" else []
            if ends[n][OP_MNEMONIC] == "j":
                return lines
            prelude, condition = _fuse_branch_test(ends[n])
            lines += prelude + [f"if not ({condition}):"]
            return lines + ["    " + stmt for stmt in onward]
        taken = []
        if not loop:
            taken.append(f"tc[{end}] += 1")
        elif taken_counts[end] == f"t{end}":
            taken.append(f"t{end} += 1")
        if target == head:
            taken.append("continue")
        elif target in inner:
            taken += move(n, number[target])
        else:
            taken += leave(target)
        if ends[n][OP_MNEMONIC] == "j":
            return lines + taken
        prelude, condition = _fuse_branch_test(ends[n])
        lines += prelude
        if not taken:
            return lines + [f"if not ({condition}):"] + ["    " + stmt for stmt in onward]
        lines.append(f"if {condition}:")
        lines += ["    " + stmt for stmt in taken]
        if onward:
            lines.append("else:")
            lines += ["    " + stmt for stmt in onward]
        return lines

    # Last unit first, so a unit's nested successor is already generated.
    sources: list[list[str]] = [[] for _ in units]
    for n in reversed(range(len(units))):
        successor = sources[n + 1] if n + 1 < len(units) else []
        sources[n] = emit(n, successor)
        if guarded[n]:
            sources[n] = [f"if s == {n}:"] + ["    " + stmt for stmt in sources[n]]
    code = [stmt for n in range(len(units)) if not nested[n] for stmt in sources[n]]

    body = ["regs = state.regs"]
    memory = any(ops[i][OP_MEM] for i in range(head, last + 1))
    if memory:
        body.append("pages = state.memory._pages")
    if loop:
        # ``e0`` numbers the iterations.  The loop runs at most the
        # worst-case iterations that fit in the budget and then leaves at
        # the header; the dispatch loop calls it again while one more
        # fits, and otherwise steps to the exact instruction per op.
        edges = [end for end, taken in taken_counts.items() if taken == f"t{end}"]
        own = [name for name in sizes if name != "e0"]
        if own or edges:
            body.append(" = ".join([*own, *(f"t{end}" for end in edges), "0"]))
        body.append(f"for e0 in range(1, budget // {length} + 1):")
        body += ["    " + stmt for stmt in code]
        body += ["else:", f"    r = {head}"]
        for n, unit in enumerate(units):
            body += [f"sc[{seg[SEG_START]}] += {counters[n]}" for seg in unit]
        body += [f"tc[{end}] += {taken}" for end, taken in taken_counts.items()]
        body.append(f"return r, {retired}, {interlocks}")
    else:
        body += code
    source = (
        "def _region(state, ic, dc, icache_access, dcache_access, sc, tc, budget):\n"
        + "\n".join("    " + stmt for stmt in body)
    )
    exec(
        compile(source, f"<region@{ops[head][OP_ADDR]:#x}>", "exec"),
        namespace,
    )
    _GLOBAL_CACHE.count_fusion(time.perf_counter() - began)
    return namespace["_region"]


def compile_superops(
    executable: ExecutableProgram, ishift: int, dshift: int
) -> SuperopProgram:
    """Cut the executable into segments and chain them into regions.

    Leaders are the static control-flow join points: the program entry,
    every static branch/jump/call target, and the op after every
    non-interior op.  A segment starts at a leader and runs over
    interior ops up to the next leader or non-interior op, taking that
    op in as its end when it is an edge op (OP_EDGE) with a mapped
    target and, for a conditional branch, a fall-through successor; a
    leader that is itself such an edge op is a one-op segment.  Every
    segment heads a region (see the section comment): a loop region
    when edges return to it from contiguous segments with no inner loop
    between, else the straight region of its own segment — unless that
    is a single op, which one fused call would run no faster than the
    per-op path.  Dynamic targets (``jx``/``callx``/``ret``) that land
    mid-segment are handled by the dispatch loop, which walks per-op
    until it reaches the next header.

    Each segment folds, at compile time:

    * **ifetch** — the I-line transition sequence at line shift
      ``ishift``: intra-segment fetch addresses are strictly increasing,
      so consecutive same-line fetches collapse exactly like the per-op
      same-line memo (uncached ops never touch the I-cache and are
      excluded; their fetch penalty is count-derived at aggregation);
    * **interlocks** — load-use stalls between ops inside the segment,
      a static property of adjacent (load dests, source regs) pairs.

    No code is generated here: a region's closure, which bakes in
    ``dshift``, is made once the region has paid for it (see
    :attr:`SuperopProgram.fused`).  Callers go through
    :meth:`ExecutableProgram.superops`, which memoizes the result.
    """
    ops = executable.ops
    pc_map = executable.pc_to_index
    n = len(ops)

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

    def edge_target(i: int) -> int:
        """Taken-successor index of a foldable edge op, else -1."""
        op = ops[i]
        if not op[OP_EDGE] or (op[OP_MNEMONIC] != "j" and op[OP_FALL_IDX] < 0):
            return -1
        return pc_map.get(op[OP_INS].imm, -1)

    segments: list[tuple] = []
    segment_at: list[Optional[tuple]] = [None] * n
    for start in sorted(leaders):
        end = start
        target = -1
        if ops[start][OP_INTERIOR]:
            fall = ops[end][OP_FALL_IDX]
            while fall >= 0 and fall not in leaders and ops[fall][OP_INTERIOR]:
                end = fall
                fall = ops[end][OP_FALL_IDX]
            if fall >= 0 and fall not in leaders:
                target = edge_target(fall)
                if target >= 0:
                    end = fall
        else:
            target = edge_target(start)
            if target < 0:
                continue

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
                interlocks += _load_use(ops, i - 1, i)
        segment_at[start] = (start, end, tuple(ifetch), interlocks, target)
        segments.append(segment_at[start])

    # The furthest edge back to each segment start: only those can head
    # a loop region, and no chain needs to look past it.
    back_edge: dict[int, int] = {}
    for seg in segments:
        if 0 <= seg[SEG_TARGET] <= seg[SEG_END]:
            back_edge[seg[SEG_TARGET]] = seg[SEG_END]

    blocks: list[tuple] = []
    block_at: list[Optional[tuple]] = [None] * n
    for seg in segments:
        head = seg[SEG_START]
        chain = [seg]
        if back_edge.get(head, -1) >= seg[SEG_END]:
            # Chain contiguous segments while no edge closes an inner
            # loop, and keep them up to the last edge to the header.
            size = 1 if seg[SEG_TARGET] == head else 0
            end = seg[SEG_END]
            while end < back_edge[head] and ops[end][OP_FALL_IDX] == end + 1:
                seg = segment_at[end + 1]
                if seg is None or head < seg[SEG_TARGET] <= seg[SEG_END]:
                    break
                chain.append(seg)
                end = seg[SEG_END]
                if seg[SEG_TARGET] == head:
                    size = len(chain)
            chain = chain[:size] or chain[:1]
        last = chain[-1][SEG_END]
        if last == head and chain[0][SEG_TARGET] != head:
            continue  # one op outside a loop: a fused call saves no turn
        block = (
            head,
            last - head + 1,
            tuple(chain),
            ops[head][OP_SRCS],
            chain[-1][SEG_TARGET] == head,
            ops[last][OP_LOAD_DESTS],
            ops[last][OP_FALL_IDX],
            ops[last][OP_ADDR],
        )
        blocks.append(block)
        block_at[head] = block

    return SuperopProgram(
        ishift=ishift,
        dshift=dshift,
        blocks=tuple(blocks),
        block_at=tuple(block_at),
        segment_at=tuple(segment_at),
        fused=[0] * n,
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

    Keys are ``(program digest, config lowering key)`` — pure content, so
    a re-assembled identical program or a re-built identical config hits,
    and so do configs that differ only in what the lowering never reads
    (caches, clock, stall penalties).  The counters are part of the
    public contract: design-space exploration asserts exactly one
    compilation per distinct (program, lowering key) pair via
    :attr:`compilations`.  Block lowerings live on the executable itself
    (:meth:`ExecutableProgram.superops`).

    A second tier, ``build``, holds the geometry- and operating-point-free
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

    The process-wide instance also counts the superop regions
    :func:`fuse_region` generated and the time that took, so a slow
    cold run shows how much of it was code generation.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("compilation cache needs room for at least one entry")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple[str, str], ExecutableProgram]" = OrderedDict()
        #: design-point build tier: caller-chosen content key -> built value
        self._builds: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self._build_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.compilations = 0
        self.evictions = 0
        self.build_hits = 0
        self.build_misses = 0
        self.builds = 0
        self.build_evictions = 0
        self.regions_fused = 0
        self.fuse_seconds = 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compile(
        self, config: "ProcessorConfig", program: "Program"
    ) -> ExecutableProgram:
        """Return the cached lowering for the pair, compiling on first use."""
        key = (program.digest(), config.lowering_key)
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

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock, self._build_lock:
            self._entries.clear()
            self._builds.clear()
            self.hits = 0
            self.misses = 0
            self.compilations = 0
            self.evictions = 0
            self.build_hits = 0
            self.build_misses = 0
            self.builds = 0
            self.build_evictions = 0
            self.regions_fused = 0
            self.fuse_seconds = 0.0

    def count_fusion(self, seconds: float) -> None:
        """Count one region closure generated in ``seconds``."""
        with self._build_lock:
            self.regions_fused += 1
            self.fuse_seconds += seconds

    def info(self) -> dict:
        """Counters, overall and per artifact tier.

        The top-level keys keep their historical meaning (the per-op
        ``ops`` tier, which every simulation resolves through); the
        ``tiers`` breakdown adds the design-point ``build`` tier (its
        ``compilations`` count builds).  ``regions_fused`` and
        ``fuse_ms`` count the superop region closures generated and the
        milliseconds spent generating them.
        """
        with self._lock, self._build_lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "compilations": self.compilations,
                "evictions": self.evictions,
                "regions_fused": self.regions_fused,
                "fuse_ms": round(self.fuse_seconds * 1e3, 3),
                "tiers": {
                    "ops": {
                        "entries": len(self._entries),
                        "hits": self.hits,
                        "misses": self.misses,
                        "compilations": self.compilations,
                        "evictions": self.evictions,
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
#: copy-on-write, which is how the serve pool's workers start with the
#: bundled benchmarks already lowered.
_GLOBAL_CACHE = CompilationCache()


def compilation_cache() -> CompilationCache:
    """The process-wide compilation cache (counters included)."""
    return _GLOBAL_CACHE
