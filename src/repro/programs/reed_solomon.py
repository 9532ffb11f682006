"""Reed-Solomon syndrome kernel with four custom-instruction choices.

The paper's Fig. 4 evaluates the *relative* accuracy of the macro-model:
one application (a Reed-Solomon decoder/encoder) implemented with four
different custom-instruction choices, whose energy profile from the
macro-model must track the profile from the reference RTL estimator.

The kernel computes the 2t = 8 syndromes of a received GF(2^8) codeword
block by Horner's rule: ``S_j = ((...((0*a_j ^ r_{n-1})*a_j ^ r_{n-2})...)
^ r_0)`` with ``a_j = alpha^j``.  The four design points:

========  =====================================================================
choice    custom-instruction set
========  =====================================================================
``sw``    none — GF multiplication in software (shift-and-xor subroutine)
``gfmul`` single-cycle table-based GF multiplier instruction
``gfmac`` fused Horner step: ``gfacc = gfacc * alpha ^ symbol`` in one insn
``dual``  2-wide fused Horner step — two syndromes per pass over the data
========  =====================================================================

All four variants produce bit-identical syndromes, verified against the
pure-Python reference in :mod:`repro.programs.gf`.
"""

from __future__ import annotations

from ..tie import TieSpec, TieState
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS
from . import extensions as ext
from . import gf
from .data import Lcg, format_words
from .registry import BenchmarkCase, expect_words

#: Number of received symbols per block and syndrome count (2t).
BLOCK_SYMBOLS = 48
SYNDROME_COUNT = 8


def _workload() -> tuple[list[int], list[int]]:
    """(received symbols, alpha^j list)."""
    received = [Lcg(1501).below(256) for _ in range(BLOCK_SYMBOLS)]
    alphas = [gf.gf_pow(2, j) for j in range(1, SYNDROME_COUNT + 1)]
    return received, alphas


def _expected_syndromes() -> list[int]:
    """The reference syndromes, computed only when a check runs."""
    return gf.syndromes(_workload()[0], SYNDROME_COUNT)


# ---------------------------------------------------------------------------
# choice 4 hardware: the 2-wide fused Horner step
# ---------------------------------------------------------------------------


def _gfacc2() -> TieState:
    return TieState("gfacc2", width=16)


def _gf_mult_subgraph(spec: TieSpec, a, b, tag: str):
    """Instantiate one table-based GF(2^8) multiplier in ``spec``."""
    log_data = list(gf.log_table())
    alog_data = list(gf.alog_table())
    log_a = spec.table(f"gflog_{tag}a", log_data, a, out_width=8)
    log_b = spec.table(f"gflog_{tag}b", log_data, b, out_width=8)
    total = spec.add(spec.zero_extend(log_a, 9), spec.zero_extend(log_b, 9), width=9)
    wrapped = spec.sub(total, spec.const(255, 9), width=9)
    needs_wrap = spec.compare("ge_u", total, spec.const(255, 9))
    index = spec.slice(spec.mux(needs_wrap, wrapped, total), 0, 8)
    product = spec.table(f"gfalog_{tag}", alog_data, index, out_width=8)
    a_zero = spec.compare("eq", a, spec.const(0, 8))
    b_zero = spec.compare("eq", b, spec.const(0, 8))
    either = spec.bit_or(a_zero, b_zero)
    return spec.mux(either, spec.const(0, 8), product)


def gfmac2_spec() -> TieSpec:
    """``gfmac2 rs`` — two parallel Horner steps on the packed state.

    ``rs`` packs symbol[7:0], alpha1[15:8], alpha2[23:16]; the 16-bit
    state ``gfacc2`` packs the two 8-bit accumulators.
    """
    spec = TieSpec(
        "gfmac2", fmt="RS1", description="dual Horner: gfacc2.lo/hi = acc*alpha ^ sym"
    )
    acc = spec.use_state(_gfacc2())
    word = spec.source("rs", width=24)
    symbol = spec.slice(word, 0, 8)
    alpha1 = spec.slice(word, 8, 8)
    alpha2 = spec.slice(word, 16, 8)
    state = spec.read_state(acc)
    acc1 = spec.slice(state, 0, 8)
    acc2 = spec.slice(state, 8, 8)
    new1 = spec.bit_xor(_gf_mult_subgraph(spec, acc1, alpha1, "p1"), symbol)
    new2 = spec.bit_xor(_gf_mult_subgraph(spec, acc2, alpha2, "p2"), symbol)
    spec.write_state(acc, spec.concat(new2, new1))
    return spec


def rdgf2_spec() -> TieSpec:
    """``rdgf2 rd`` — rd = packed dual accumulator (acc2<<8 | acc1)."""
    spec = TieSpec("rdgf2", fmt="RD1", description="rd = gfacc2")
    acc = spec.use_state(_gfacc2())
    spec.result(spec.zero_extend(spec.read_state(acc), 32))
    return spec


def wrgf2_spec() -> TieSpec:
    """``wrgf2 rs`` — gfacc2 = rs[15:0]."""
    spec = TieSpec("wrgf2", fmt="RS1", description="gfacc2 = rs[15:0]")
    acc = spec.use_state(_gfacc2())
    spec.write_state(acc, spec.source("rs", width=16))
    return spec


# ---------------------------------------------------------------------------
# the four program variants
# ---------------------------------------------------------------------------


def _data_section(received: list[int], alphas: list[int]) -> str:
    return f"""
    .data
received:
{format_words(received, directive=".byte", per_line=16)}
alphas:
{format_words(alphas, directive=".byte", per_line=16)}
    .align 4
synd: .space {SYNDROME_COUNT * 4}
"""


def rs_software() -> BenchmarkCase:
    received, alphas = _workload()
    source = _data_section(received, alphas) + f"""
    .text
main:
    movi a15, 0          ; j
syndrome_loop:
    la a2, alphas
    add a2, a2, a15
    l8ui a14, a2, 0      ; alpha_j
    movi a13, 0          ; acc
    la a12, received
    addi a12, a12, {BLOCK_SYMBOLS - 1}
    movi a11, {BLOCK_SYMBOLS}
horner:
    ; acc = gfmult_sw(acc, alpha_j) ^ r[i]
    mov a6, a13
    mov a7, a14
    call gfmult_sw
    l8ui a5, a12, 0
    xor a13, a8, a5
    addi a12, a12, -1
    addi a11, a11, -1
    bnez a11, horner
    ; synd[j] = acc
    la a2, synd
    slli a3, a15, 2
    add a2, a2, a3
    s32i a13, a2, 0
    addi a15, a15, 1
    blti a15, {SYNDROME_COUNT}, syndrome_loop
    halt

; GF(2^8) multiply, poly 0x11D: a8 = a6 * a7 (clobbers a6, a7, a10)
gfmult_sw:
    movi a8, 0
    movi a10, 8
gfm_loop:
    bbc a7, 0, gfm_no_add
    xor a8, a8, a6
gfm_no_add:
    slli a6, a6, 1
    bbc a6, 8, gfm_no_red
    xori a6, a6, 0x11D
gfm_no_red:
    srli a7, a7, 1
    addi a10, a10, -1
    bnez a10, gfm_loop
    ret
"""
    return BenchmarkCase(
        name="rs_sw",
        description="Reed-Solomon syndromes, software GF multiply (no TIE)",
        source=source,
        check=expect_words("synd", _expected_syndromes),
        max_instructions=DEFAULT_MAX_INSTRUCTIONS,
    )


def rs_gfmul() -> BenchmarkCase:
    received, alphas = _workload()
    source = _data_section(received, alphas) + f"""
    .text
main:
    movi a15, 0          ; j
syndrome_loop:
    la a2, alphas
    add a2, a2, a15
    l8ui a14, a2, 0      ; alpha_j
    movi a13, 0          ; acc
    la a12, received
    addi a12, a12, {BLOCK_SYMBOLS - 1}
    movi a11, {BLOCK_SYMBOLS}
horner:
    gfmul a8, a13, a14
    l8ui a5, a12, 0
    xor a13, a8, a5
    addi a12, a12, -1
    addi a11, a11, -1
    bnez a11, horner
    la a2, synd
    slli a3, a15, 2
    add a2, a2, a3
    s32i a13, a2, 0
    addi a15, a15, 1
    blti a15, {SYNDROME_COUNT}, syndrome_loop
    halt
"""
    return BenchmarkCase(
        name="rs_gfmul",
        description="Reed-Solomon syndromes, table-based gfmul instruction",
        source=source,
        spec_factories=(ext.gfmul_spec,),
        check=expect_words("synd", _expected_syndromes),
    )


def rs_gfmac() -> BenchmarkCase:
    received, alphas = _workload()
    source = _data_section(received, alphas) + f"""
    .text
main:
    movi a15, 0          ; j
syndrome_loop:
    la a2, alphas
    add a2, a2, a15
    l8ui a14, a2, 0      ; alpha_j
    slli a14, a14, 8     ; pre-shift alpha into [15:8]
    movi a4, 0
    wrgf a4              ; gfacc = 0
    la a12, received
    addi a12, a12, {BLOCK_SYMBOLS - 1}
    movi a11, {BLOCK_SYMBOLS}
horner:
    l8ui a5, a12, 0
    or a5, a5, a14       ; pack alpha|symbol
    gfmac a5             ; gfacc = gfacc*alpha ^ symbol
    addi a12, a12, -1
    addi a11, a11, -1
    bnez a11, horner
    rdgf a13
    la a2, synd
    slli a3, a15, 2
    add a2, a2, a3
    s32i a13, a2, 0
    addi a15, a15, 1
    blti a15, {SYNDROME_COUNT}, syndrome_loop
    halt
"""
    return BenchmarkCase(
        name="rs_gfmac",
        description="Reed-Solomon syndromes, fused gfmac Horner instruction",
        source=source,
        spec_factories=(ext.gfmac_spec, ext.rdgf_spec, ext.wrgf_spec),
        check=expect_words("synd", _expected_syndromes),
    )


def rs_dual() -> BenchmarkCase:
    received, alphas = _workload()
    source = _data_section(received, alphas) + f"""
    .text
main:
    movi a15, 0          ; pair index: 0, 2, 4, 6
pair_loop:
    la a2, alphas
    add a2, a2, a15
    l8ui a14, a2, 0      ; alpha_(j)
    l8ui a13, a2, 1      ; alpha_(j+1)
    slli a14, a14, 8
    slli a13, a13, 16
    or a14, a14, a13     ; packed alphas [23:8]
    movi a4, 0
    wrgf2 a4             ; both accumulators = 0
    la a12, received
    addi a12, a12, {BLOCK_SYMBOLS - 1}
    movi a11, {BLOCK_SYMBOLS}
horner:
    l8ui a5, a12, 0
    or a5, a5, a14       ; pack alphas|symbol
    gfmac2 a5            ; dual Horner step
    addi a12, a12, -1
    addi a11, a11, -1
    bnez a11, horner
    rdgf2 a13
    ; synd[j] = acc1; synd[j+1] = acc2
    la a2, synd
    slli a3, a15, 2
    add a2, a2, a3
    andi a4, a13, 255
    s32i a4, a2, 0
    srli a4, a13, 8
    s32i a4, a2, 4
    addi a15, a15, 2
    blti a15, {SYNDROME_COUNT}, pair_loop
    halt
"""
    return BenchmarkCase(
        name="rs_dual",
        description="Reed-Solomon syndromes, 2-wide fused Horner instruction",
        source=source,
        spec_factories=(gfmac2_spec, rdgf2_spec, wrgf2_spec),
        check=expect_words("synd", _expected_syndromes),
    )


def reed_solomon_choices() -> list[BenchmarkCase]:
    """The four Fig. 4 design points, in increasing-specialization order."""
    return [rs_software(), rs_gfmul(), rs_gfmac(), rs_dual()]
