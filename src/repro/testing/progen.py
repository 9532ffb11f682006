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
# Superop side-exit stress programs
# ---------------------------------------------------------------------------
#
# The block-level superop engine fuses straight interior runs into one
# dispatch and *side-exits* to the per-op path for everything that could
# make the fusion observable.  Random programs rarely pin those seams
# hard, so each case below is built around exactly one of them: blocks
# of a single instruction, taken branches whose target is the very next
# address, a dynamic jump landing mid-block, the instruction budget
# expiring inside a would-be block, and faults (wild jumps, running off
# the end of the text segment) that must surface identically.


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
    """The handwritten superop side-exit suite (pure function)."""
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
    )


def stress_programs() -> tuple[tuple[StressCase, Program], ...]:
    """Assembled stress cases against the base ISA."""
    return tuple(
        (case, assemble(case.source + "\n", case.name, isa=BASE_ISA))
        for case in stress_cases()
    )
