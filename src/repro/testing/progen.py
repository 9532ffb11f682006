"""Seeded random-program generation for differential simulator testing.

The compiled dispatch engine (:mod:`repro.xtcore.iss`) must be
bit-for-bit equivalent to the retained reference interpreter
(:mod:`repro.xtcore.interp`) — on statistics, trace records and final
machine state.  The bundled benchmark suite pins the realistic cases;
this generator pins the *adversarial* ones: hundreds of seeded random
programs mixing straight-line ALU blocks, loads/stores with load-use
hazards, short bounded loops, forward branch skips and (occasionally)
uncached code regions.

Every generated program terminates: loops count a dedicated register
down from a small constant, all other control flow is forward, and the
program ends in ``halt``.  Generation is a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from ..asm import Program, assemble
from ..isa import BASE_ISA, InstructionSet

#: Register roles: a2..a9 are the scratch pool the generator mutates
#: freely, a10 holds the data-buffer base, a11 the loop counter.  a0/a1
#: (link/stack) are never touched, so ``ret``-style exits stay intact.
SCRATCH_REGISTERS = tuple(range(2, 10))
BUFFER_REGISTER = 10
COUNTER_REGISTER = 11

#: Number of 32-bit words in the data buffer all loads/stores stay inside.
BUFFER_WORDS = 32

_R3_OPS = (
    "add", "sub", "and", "or", "xor", "nor", "andn", "orn", "xnor",
    "min", "max", "minu", "maxu", "slt", "sltu", "sll", "srl", "sra",
    "rotl", "rotr", "mull", "mulh", "mulhu", "addx2", "addx4", "addx8",
    "subx2", "subx4", "moveqz", "movnez", "movltz", "movgez",
    "quos", "quou", "rems", "remu",  # divide-by-zero is defined (no traps)
)
_R2_OPS = (
    "mov", "neg", "not", "abs", "sext8", "sext16", "zext8", "zext16",
    "clz", "ctz", "popc", "bswap",
)
_I_OPS = ("addi", "addmi", "slti", "sltiu")
_IU_OPS = ("andi", "ori", "xori")
_SHI_OPS = ("slli", "srli", "srai", "roli", "rori")
_LOAD_OPS = ("l32i", "l16ui", "l16si", "l8ui", "l8si")
_STORE_OPS = ("s32i", "s16i", "s8i")
_B2_OPS = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_B1_OPS = ("beqz", "bnez", "bltz", "bgez")
_BI_OPS = ("beqi", "bnei", "blti", "bgei", "bbs", "bbc")


def _alu_line(rng: random.Random) -> str:
    """One random ALU instruction over the scratch pool."""
    rd = rng.choice(SCRATCH_REGISTERS)
    rs = rng.choice(SCRATCH_REGISTERS)
    kind = rng.randrange(6)
    if kind == 0:
        rt = rng.choice(SCRATCH_REGISTERS)
        return f"    {rng.choice(_R3_OPS)} a{rd}, a{rs}, a{rt}"
    if kind == 1:
        return f"    {rng.choice(_R2_OPS)} a{rd}, a{rs}"
    if kind == 2:
        return f"    {rng.choice(_I_OPS)} a{rd}, a{rs}, {rng.randint(-2048, 2047)}"
    if kind == 3:
        return f"    {rng.choice(_IU_OPS)} a{rd}, a{rs}, {rng.randint(0, 2047)}"
    if kind == 4:
        return f"    {rng.choice(_SHI_OPS)} a{rd}, a{rs}, {rng.randint(0, 31)}"
    return f"    movi a{rd}, {rng.randint(-2048, 2047)}"


def _mem_line(rng: random.Random) -> str:
    """One random load or store confined to the data buffer."""
    reg = rng.choice(SCRATCH_REGISTERS)
    if rng.random() < 0.55:
        mnemonic = rng.choice(_LOAD_OPS)
    else:
        mnemonic = rng.choice(_STORE_OPS)
    width = {"3": 4, "1": 2, "8": 1}[mnemonic[1]]  # l32i/s32i→4, l16*/s16i→2, l8*/s8i→1
    limit = BUFFER_WORDS * 4 - width
    offset = rng.randrange(0, limit + 1, width)
    return f"    {mnemonic} a{reg}, a{BUFFER_REGISTER}, {offset}"


def _branch_line(rng: random.Random, target: str) -> str:
    """One random conditional branch to ``target``."""
    rs = rng.choice(SCRATCH_REGISTERS)
    kind = rng.randrange(3)
    if kind == 0:
        rt = rng.choice(SCRATCH_REGISTERS)
        return f"    {rng.choice(_B2_OPS)} a{rs}, a{rt}, {target}"
    if kind == 1:
        return f"    {rng.choice(_B1_OPS)} a{rs}, {target}"
    return f"    {rng.choice(_BI_OPS)} a{rs}, {rng.randint(0, 7)}, {target}"


def generate_source(
    seed: int,
    min_blocks: int = 3,
    max_blocks: int = 9,
    uncached_probability: float = 0.25,
) -> str:
    """Deterministically generate one terminating assembly program."""
    rng = random.Random(seed)
    lines = ["    .data", "buf:"]
    words = ", ".join(str(rng.randrange(0, 2**31)) for _ in range(BUFFER_WORDS))
    lines.append(f"    .word {words}")
    lines += ["    .text", "main:", f"    la a{BUFFER_REGISTER}, buf"]
    for reg in SCRATCH_REGISTERS:
        lines.append(f"    movi a{reg}, {rng.randint(-2048, 2047)}")

    label_counter = 0

    def fresh_label(prefix: str) -> str:
        nonlocal label_counter
        label_counter += 1
        return f"{prefix}{label_counter}"

    blocks = rng.randint(min_blocks, max_blocks)
    emitted_uncached = False
    for _ in range(blocks):
        kind = rng.random()
        if kind < 0.35:  # straight-line ALU
            for _ in range(rng.randint(2, 6)):
                lines.append(_alu_line(rng))
        elif kind < 0.55:  # memory burst (load-use hazards arise naturally)
            for _ in range(rng.randint(1, 4)):
                lines.append(_mem_line(rng))
                if rng.random() < 0.5:
                    lines.append(_alu_line(rng))
        elif kind < 0.75:  # bounded counted loop
            head = fresh_label("loop")
            lines.append(f"    movi a{COUNTER_REGISTER}, {rng.randint(1, 5)}")
            lines.append(f"{head}:")
            for _ in range(rng.randint(1, 3)):
                lines.append(_mem_line(rng) if rng.random() < 0.4 else _alu_line(rng))
            lines.append(f"    addi a{COUNTER_REGISTER}, a{COUNTER_REGISTER}, -1")
            lines.append(f"    bnez a{COUNTER_REGISTER}, {head}")
        elif kind < 0.92:  # forward conditional skip
            skip = fresh_label("skip")
            lines.append(_branch_line(rng, skip))
            for _ in range(rng.randint(1, 3)):
                lines.append(_alu_line(rng))
            lines.append(f"{skip}:")
        elif not emitted_uncached and rng.random() < uncached_probability:
            # one excursion through an uncached code region
            emitted_uncached = True
            there = fresh_label("ucode")
            back = fresh_label("back")
            lines.append(f"    j {there}")
            lines.append("    .utext")
            lines.append(f"{there}:")
            for _ in range(rng.randint(1, 3)):
                lines.append(_alu_line(rng))
            lines.append(f"    j {back}")
            lines.append("    .text")
            lines.append(f"{back}:")
        else:  # unconditional forward jump over dead code
            over = fresh_label("over")
            lines.append(f"    j {over}")
            for _ in range(rng.randint(1, 2)):
                lines.append(_alu_line(rng))
            lines.append(f"{over}:")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def generate_program(
    seed: int,
    isa: Optional[InstructionSet] = None,
    name: Optional[str] = None,
    **kwargs,
) -> Program:
    """Generate and assemble the program for ``seed`` (base ISA default)."""
    return assemble(
        generate_source(seed, **kwargs),
        name if name is not None else f"progen-{seed}",
        isa=isa if isa is not None else BASE_ISA,
    )


# ---------------------------------------------------------------------------
# Superop side-exit and region-seam stress programs
# ---------------------------------------------------------------------------
#
# The superop engine runs fused regions — straight segments and loops
# with their internal branches inlined — in one dispatch and *side-exits*
# to the per-op path for everything that could make the fusion
# observable.  Random programs rarely pin those seams hard, so each case
# below is built around exactly one of them: segments of a single
# instruction, taken branches whose target is the very next address, a
# dynamic jump landing mid-segment, the instruction budget expiring
# inside a region, faults (wild jumps, running off the end of the text
# segment) that must surface identically, and the shapes a loop region
# folds: if-then and if-then-else bodies, exits out of the loop, edges
# to their own fall-through, divides by zero, load-use interlocks at
# joins and loop bodies spanning I-lines.


@dataclasses.dataclass(frozen=True)
class StressCase:
    """One side-exit stress program for differential engine testing."""

    name: str
    source: str
    max_instructions: int = 200_000
    #: True when the program is *supposed* to raise (same exception type
    #: and message across engines) rather than run to completion.
    faulting: bool = False


def stress_cases() -> tuple[StressCase, ...]:
    """The handwritten superop side-exit and region-seam suite (pure function)."""
    single_op_blocks = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a2, 0",
            "    movi a3, 12",
            "tick:",
            "    addi a2, a2, 1",  # single-instruction block per iteration
            "    bne a2, a3, tick",
            "    halt",
        ]
    )
    back_to_back_taken = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a2, 8",
            "    movi a3, 0",
            "chain:",
            # taken branches whose target is the fall-through address:
            # three block boundaries with no interior ops between them
            "    bnez a2, c1",
            "c1:",
            "    bnez a2, c2",
            "c2:",
            "    bnez a2, c3",
            "c3:",
            "    addi a2, a2, -1",
            "    addi a3, a3, 1",
            "    bnez a2, chain",
            "    halt",
        ]
    )
    midblock_landing = "\n".join(
        [
            "    .text",
            "main:",
            "    la a5, mid",
            "    movi a2, 1",
            "    jx a5",
            "run:",
            # `mid` is never a static branch target, so this whole run
            # fuses into one block; the dynamic jx lands in its middle
            # and must walk per-op to the next leader
            "    add a2, a2, a2",
            "    add a2, a2, a2",
            "mid:",
            "    addi a2, a2, 3",
            "    add a2, a2, a2",
            "    halt",
        ]
    )
    budget_in_block = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a2, 1",
            "spin:",
        ]
        + ["    add a2, a2, a2"] * 6
        + ["    addi a2, a2, 1"] * 6
        + [
            "    j spin",
        ]
    )
    wild_jump = "\n".join(
        [
            "    .data",
            "buf:",
            "    .word 1, 2, 3, 4",
            "    .text",
            "main:",
            "    movi a2, 7",
            "    la a5, buf",
            "    jx a5",
            "    halt",
        ]
    )
    fall_off_end = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a2, 1",
            "    j tail",
            "    halt",
            "tail:",
            # the block's last op has no successor address: the fused
            # fall-off path must raise the same invalid-pc diagnostic
            "    add a2, a2, a2",
            "    addi a2, a2, 5",
        ]
    )
    values = "\n".join(
        ["    .data", "vals:", "    .word 3, 8, 5, 12, 7, 1, 9, 4", "    .text"]
    )
    region_if_then = "\n".join(
        [
            values,
            "main:",
            "    la a10, vals",
            "    movi a11, 8",
            "    movi a6, 0",
            "loop:",
            "    l32i a4, a10, 0",
            "    bbc a4, 0, even",  # skips the if-then body for even values
            "    add a6, a6, a4",
            "even:",
            "    addi a10, a10, 4",
            "    addi a11, a11, -1",
            "    bnez a11, loop",
            "    halt",
        ]
    )
    region_if_else = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a11, 10",
            "loop:",
            "    andi a5, a11, 1",
            "    beqz a5, other",
            "    addi a6, a6, 3",
            "    j join",  # forward j: the then-arm skips the else-arm
            "other:",
            "    addi a7, a7, 5",
            "    slli a7, a7, 1",
            "join:",
            "    xor a8, a6, a7",
            "    addi a11, a11, -1",
            "    bnez a11, loop",
            "    halt",
        ]
    )
    region_early_exit = "\n".join(
        [
            values,
            "main:",
            "    movi a2, 0",
            "    movi a3, 0",
            "outer:",
            "    addi a3, a3, 1",
            "    bgei a3, 6, search",
            "inner:",
            "    addi a2, a2, 1",
            # backward exit out of the inner loop, and the outer loop's
            # back-edge: the two loop regions overlap
            "    bbs a2, 3, outer",
            "    bnei a2, 30, inner",
            "search:",
            "    la a10, vals",
            "    movi a11, 8",
            "find:",
            "    l32i a4, a10, 0",
            "    beqi a4, 12, found",  # forward exit out of the loop
            "    addi a10, a10, 4",
            "    addi a11, a11, -1",
            "    bnez a11, find",
            "    movi a2, -1",
            "    halt",
            "found:",
            "    mov a5, a4",
            "    halt",
        ]
    )
    region_edge_to_fall_through = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a2, 0",
            "    movi a3, 6",
            "first:",
            "    addi a2, a2, 1",
            "    bnez a2, next",  # taken and untaken both reach `next`
            "next:",
            "    add a4, a4, a2",
            # the back-edge falls through into the next loop's header
            "    bne a2, a3, first",
            "second:",
            "    addi a3, a3, -1",
            "    bnez a3, second",
            "    halt",
        ]
    )
    region_budget = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a11, 1000",
            "spin:",
            "    addi a2, a2, 1",
            "    bbc a2, 0, evens",
            "    addi a3, a3, 1",
            "    xor a4, a4, a3",
            "evens:",
            "    addi a11, a11, -1",
            "    bnez a11, spin",
            "    halt",
        ]
    )
    region_divide_by_zero = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a2, 7",
            "    movi a3, 2",
            "    movi a11, 5",
            "loop:",
            # a3 reaches zero on the third pass, inside the fused loop:
            # the quotient is all ones and the remainder the dividend
            "    quos a4, a2, a3",
            "    rems a5, a2, a3",
            "    add a6, a6, a4",
            "    add a7, a7, a5",
            "    addi a3, a3, -1",
            "    addi a11, a11, -1",
            "    bnez a11, loop",
            "    halt",
        ]
    )
    region_load_at_join = "\n".join(
        [
            values,
            "main:",
            "    la a10, vals",
            "    movi a11, 8",
            "    l32i a4, a10, 0",  # feeds the header on the entry edge only
            "loop:",
            "    add a5, a4, a11",
            "    bbs a11, 0, odd",
            "    l32i a4, a10, 4",
            "    j join",  # this edge into the join does not interlock ...
            "odd:",
            "    l32i a4, a10, 8",  # ... the fall-through edge does
            "join:",
            "    add a6, a6, a4",
            "    addi a11, a11, -1",
            "    bnez a11, loop",
            "    halt",
        ]
    )
    region_spans_ilines = "\n".join(
        [
            "    .text",
            "main:",
            "    movi a2, 0",
            "    movi a3, 0",
            "    movi a11, 9",
            # the header is the last op of a 16 B line, and the skipped
            # body crosses the next line boundary
            "loop:",
            "    addi a2, a2, 3",
            "    bbc a2, 1, skip",
            "    addi a3, a3, 1",
            "    xor a4, a3, a2",
            "    slli a5, a4, 2",
            "    or a6, a6, a5",
            "skip:",
            "    srli a7, a2, 1",
            "    add a8, a8, a7",
            "    addi a11, a11, -1",
            "    bnez a11, loop",
            "    halt",
        ]
    )
    return (
        StressCase("stress_single_op_blocks", single_op_blocks),
        StressCase("stress_back_to_back_taken", back_to_back_taken),
        StressCase("stress_midblock_landing", midblock_landing),
        # 1 preamble op + 8 full 12-op spins + 3 ops: expiry lands 3 ops
        # into a block, forcing the budget side exit mid-run
        StressCase(
            "stress_budget_in_block",
            budget_in_block,
            max_instructions=100,
            faulting=True,
        ),
        StressCase("stress_wild_jump", wild_jump, faulting=True),
        StressCase("stress_fall_off_end", fall_off_end, faulting=True),
        StressCase("stress_region_if_then", region_if_then),
        StressCase("stress_region_if_else", region_if_else),
        StressCase("stress_region_early_exit", region_early_exit),
        StressCase("stress_region_edge_to_fall_through", region_edge_to_fall_through),
        # 1 preamble op + iterations of 4 or 6 ops: 203 lands mid-loop
        StressCase(
            "stress_region_budget", region_budget, max_instructions=203, faulting=True
        ),
        StressCase("stress_region_divide_by_zero", region_divide_by_zero),
        StressCase("stress_region_load_at_join", region_load_at_join),
        StressCase("stress_region_spans_ilines", region_spans_ilines),
    )


def stress_programs() -> tuple[tuple[StressCase, Program], ...]:
    """Assembled stress cases against the base ISA."""
    return tuple(
        (case, assemble(case.source + "\n", case.name, isa=BASE_ISA))
        for case in stress_cases()
    )
