"""FIR filter with three custom-instruction choices (second DSE workload).

A second design-space-exploration study alongside Reed-Solomon: a
16-tap FIR filter over 16-bit samples, implemented three ways:

========  ==================================================================
choice    implementation
========  ==================================================================
``sw``      base ISA only — ``mull`` + ``add`` per tap
``mac``     the ``mac16`` fused multiply-accumulate custom instruction
``packed``  ``firstep2``: one custom instruction per tap pair — packs two
            samples and two coefficients, two 16x16 MACs into one 40-bit
            accumulator via a CSA compression stage
========  ==================================================================

All three produce bit-identical outputs, verified against a pure-Python
reference.  The packed variant demonstrates a deeper datapath (TIE_mac +
TIE_csa + TIE_add + custom register together).
"""

from __future__ import annotations

from ..tie import TieSpec, TieState
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS
from . import extensions as ext
from .data import Lcg, format_words
from .registry import BenchmarkCase, expect_words

#: filter geometry
TAPS = 16
SAMPLES = 72
OUTPUTS = SAMPLES - TAPS + 1

_U32 = 0xFFFFFFFF
_ACC_MASK = (1 << 40) - 1


def _workload() -> tuple[list[int], list[int]]:
    """(samples, coefficients) — all 16-bit unsigned."""
    return Lcg(7001).words(SAMPLES, bits=12), Lcg(7002).words(TAPS, bits=8)


def _expected_outputs() -> list[int]:
    """The reference filter outputs, computed only when a check runs."""
    samples, coefficients = _workload()
    outputs = []
    for n in range(OUTPUTS):
        acc = 0
        for k in range(TAPS):
            acc = (acc + samples[n + k] * coefficients[k]) & _ACC_MASK
        outputs.append(acc & _U32)
    return outputs


def _fir_state() -> TieState:
    return TieState("firacc", width=40)


def firstep2_spec() -> TieSpec:
    """``firstep2 rd, rs, rt`` — rd = low32 of (firacc += s0*c0 + s1*c1).

    ``rs`` packs samples (lo16, hi16), ``rt`` packs coefficients.  Writing
    the running accumulator to ``rd`` keeps the R3 format natural and
    gives the kernel a free copy of the low word.
    """
    spec = TieSpec("firstep2", fmt="R3", description="firacc += 2-tap packed MAC; rd = firacc[31:0]")
    acc = spec.use_state(_fir_state())
    samples = spec.source("rs")
    coefficients = spec.source("rt")
    s0 = spec.slice(samples, 0, 16)
    s1 = spec.slice(samples, 16, 16)
    c0 = spec.slice(coefficients, 0, 16)
    c1 = spec.slice(coefficients, 16, 16)
    p0 = spec.tie_mult(s0, c0)                      # 32-bit products
    p1 = spec.tie_mult(s1, c1)
    old = spec.read_state(acc)
    partial_sum, partial_carry = spec.csa(
        spec.zero_extend(p0, 40), spec.zero_extend(p1, 40), old, width=40
    )
    total = spec.tie_add(partial_sum, partial_carry, width=40)
    spec.write_state(acc, total)
    spec.result(spec.slice(total, 0, 32))
    return spec


def wrfir_spec() -> TieSpec:
    """``wrfir rs`` — firacc = zext(rs)."""
    spec = TieSpec("wrfir", fmt="RS1", description="firacc = zext(rs)")
    acc = spec.use_state(_fir_state())
    spec.write_state(acc, spec.zero_extend(spec.source("rs"), 40))
    return spec


def ref_firstep2(acc: int, samples: int, coefficients: int) -> int:
    s0, s1 = samples & 0xFFFF, (samples >> 16) & 0xFFFF
    c0, c1 = coefficients & 0xFFFF, (coefficients >> 16) & 0xFFFF
    return (acc + s0 * c0 + s1 * c1) & _ACC_MASK


def _data_section(samples: list[int], coefficients: list[int]) -> str:
    return f"""
    .data
samples:
{format_words(samples, directive=".half", per_line=12)}
coeffs:
{format_words(coefficients, directive=".half", per_line=12)}
    .align 4
outp: .space {OUTPUTS * 4}
"""


def fir_software() -> BenchmarkCase:
    samples, coefficients = _workload()
    source = _data_section(samples, coefficients) + f"""
    .text
main:
    movi a15, 0          ; n
    movi a9, {OUTPUTS}
    la a14, outp
out_loop:
    movi a13, 0          ; acc
    la a12, samples
    slli a2, a15, 1
    add a12, a12, a2     ; &samples[n]
    la a11, coeffs
    movi a10, {TAPS}
tap_loop:
    l16ui a4, a12, 0
    l16ui a5, a11, 0
    mull a6, a4, a5
    add a13, a13, a6
    addi a12, a12, 2
    addi a11, a11, 2
    addi a10, a10, -1
    bnez a10, tap_loop
    s32i a13, a14, 0
    addi a14, a14, 4
    addi a15, a15, 1
    blt a15, a9, out_loop
    halt
"""
    return BenchmarkCase(
        name="fir_sw",
        description="16-tap FIR, base ISA (mull + add per tap)",
        source=source,
        check=expect_words("outp", _expected_outputs),
        max_instructions=DEFAULT_MAX_INSTRUCTIONS,
    )


def fir_mac() -> BenchmarkCase:
    samples, coefficients = _workload()
    source = _data_section(samples, coefficients) + f"""
    .text
main:
    movi a15, 0          ; n
    movi a9, {OUTPUTS}
    la a14, outp
out_loop:
    movi a2, 0
    wrmac a2             ; acc40 = 0
    la a12, samples
    slli a2, a15, 1
    add a12, a12, a2
    la a11, coeffs
    movi a10, {TAPS}
tap_loop:
    l16ui a4, a12, 0
    l16ui a5, a11, 0
    slli a5, a5, 16
    or a4, a4, a5        ; pack sample | coeff<<16
    mac16 a4             ; acc40 += sample * coeff
    addi a12, a12, 2
    addi a11, a11, 2
    addi a10, a10, -1
    bnez a10, tap_loop
    rdmac a13
    s32i a13, a14, 0
    addi a14, a14, 4
    addi a15, a15, 1
    blt a15, a9, out_loop
    halt
"""
    return BenchmarkCase(
        name="fir_mac",
        description="16-tap FIR with the mac16 fused MAC instruction",
        source=source,
        spec_factories=(ext.mac16_spec, ext.rdmac_spec, ext.wrmac_spec),
        check=expect_words("outp", _expected_outputs),
    )


def fir_packed() -> BenchmarkCase:
    samples, coefficients = _workload()
    source = _data_section(samples, coefficients) + f"""
    .text
main:
    movi a15, 0          ; n
    movi a9, {OUTPUTS}
    la a14, outp
out_loop:
    movi a2, 0
    wrfir a2             ; firacc = 0
    la a12, samples
    slli a2, a15, 1
    add a12, a12, a2
    la a11, coeffs
    movi a10, {TAPS // 2}
pair_loop:
    l32i a4, a12, 0      ; two packed samples
    l32i a5, a11, 0      ; two packed coefficients
    firstep2 a13, a4, a5
    addi a12, a12, 4
    addi a11, a11, 4
    addi a10, a10, -1
    bnez a10, pair_loop
    s32i a13, a14, 0
    addi a14, a14, 4
    addi a15, a15, 1
    blt a15, a9, out_loop
    halt
"""
    return BenchmarkCase(
        name="fir_packed",
        description="16-tap FIR with the 2-wide packed firstep2 instruction",
        source=source,
        spec_factories=(firstep2_spec, wrfir_spec),
        check=expect_words("outp", _expected_outputs),
    )


def fir_choices() -> list[BenchmarkCase]:
    """The three FIR design points, in increasing-specialization order."""
    return [fir_software(), fir_mac(), fir_packed()]
