"""The custom-instruction library used by the benchmark programs.

Each factory returns a *fresh* :class:`~repro.tie.TieSpec` (specs are
mutable builders, so they cannot be shared between processor configs).
Together the specs cover all ten hardware-library component categories,
which the characterization suite requires (paper Sec. IV-A: "the test
program suite also incorporates custom instructions so as to cover all
the custom hardware library components").

A pure-Python reference function accompanies each spec (``ref_*``) for
functional verification of both the TIE semantics and the assembly
kernels that use them.
"""

from __future__ import annotations

from typing import Iterable

from ..tie import TieSpec, TieState
from . import gf

# ---------------------------------------------------------------------------
# TIE_MULT — specialized 16x16 multiplier
# ---------------------------------------------------------------------------


def mul16_spec() -> TieSpec:
    """``mul16 rd, rs, rt`` — rd = low16(rs) * low16(rt) (32-bit result)."""
    spec = TieSpec("mul16", fmt="R3", description="rd = rs[15:0] * rt[15:0]")
    a = spec.source("rs", width=16)
    b = spec.source("rt", width=16)
    spec.result(spec.tie_mult(a, b))
    return spec


def ref_mul16(a: int, b: int) -> int:
    return ((a & 0xFFFF) * (b & 0xFFFF)) & 0xFFFFFFFF


def mul8_spec() -> TieSpec:
    """``mul8 rd, rs, rt`` — rd = low8(rs) * low8(rt).

    A *narrow* sibling of :func:`mul16_spec`: same category, a quarter of
    the complexity.  Pairs like (mul16, mul8) let the regression separate
    the per-execution base-core cost of a custom instruction (``N_sd``)
    from the per-complexity-unit energy of its category (``S_tie_mult``).
    """
    spec = TieSpec("mul8", fmt="R3", description="rd = rs[7:0] * rt[7:0]")
    a = spec.source("rs", width=8)
    b = spec.source("rt", width=8)
    spec.result(spec.tie_mult(a, b))
    return spec


def ref_mul8(a: int, b: int) -> int:
    return ((a & 0xFF) * (b & 0xFF)) & 0xFFFF


def min2h_spec() -> TieSpec:
    """``min2h rd, rs, rt`` — 16-bit unsigned minimum (narrow comparator)."""
    spec = TieSpec("min2h", fmt="R3", description="rd = min_u(rs[15:0], rt[15:0])")
    a = spec.source("rs", width=16)
    b = spec.source("rt", width=16)
    spec.result(spec.minimum(a, b))
    return spec


def ref_min2h(a: int, b: int) -> int:
    return min(a & 0xFFFF, b & 0xFFFF)


def swz_spec() -> TieSpec:
    """``swz rd, rs`` — byte-reverse ``rs`` using pure wiring.

    A zero-gate custom instruction: its datapath is slices and
    concatenations only, so it instantiates *no* hardware-library
    components and contributes nothing to the structural variables.
    Programs dense in ``swz`` therefore probe the per-cycle base-core
    cost of a custom instruction (the ``N_sd`` coefficient) directly.
    """
    spec = TieSpec("swz", fmt="R2", description="rd = byte-reverse(rs), wiring only")
    word = spec.source("rs")
    b0 = spec.slice(word, 0, 8)
    b1 = spec.slice(word, 8, 8)
    b2 = spec.slice(word, 16, 8)
    b3 = spec.slice(word, 24, 8)
    spec.result(spec.concat(spec.concat(b0, b1), spec.concat(b2, b3)))
    return spec


def ref_swz(a: int) -> int:
    return int.from_bytes((a & 0xFFFFFFFF).to_bytes(4, "little"), "big")


# ---------------------------------------------------------------------------
# TIE_MAC + CUSTOM_REG — multiply-accumulate into a 40-bit accumulator
# ---------------------------------------------------------------------------


def _acc40() -> TieState:
    return TieState("acc40", width=40)


def mac16_spec() -> TieSpec:
    """``mac16 rs, rt`` — acc40 += low16(rs) * low16(rt) (no GPR result)."""
    spec = TieSpec("mac16", fmt="RS1", description="acc40 += rs[15:0] * rs[31:16]")
    acc = spec.use_state(_acc40())
    word = spec.source("rs", width=32)
    a = spec.slice(word, 0, 16)
    b = spec.slice(word, 16, 16)
    spec.write_state(acc, spec.tie_mac(a, b, spec.read_state(acc), width=40))
    return spec


def rdmac_spec() -> TieSpec:
    """``rdmac rd`` — rd = low 32 bits of acc40."""
    spec = TieSpec("rdmac", fmt="RD1", description="rd = acc40[31:0]")
    acc = spec.use_state(_acc40())
    spec.result(spec.slice(spec.read_state(acc), 0, 32))
    return spec


def wrmac_spec() -> TieSpec:
    """``wrmac rs`` — acc40 = zext(rs) (clears the upper 8 bits)."""
    spec = TieSpec("wrmac", fmt="RS1", description="acc40 = zext(rs)")
    acc = spec.use_state(_acc40())
    spec.write_state(acc, spec.zero_extend(spec.source("rs", width=32), 40))
    return spec


def ref_mac16_step(acc: int, word: int) -> int:
    a = word & 0xFFFF
    b = (word >> 16) & 0xFFFF
    return (acc + a * b) & ((1 << 40) - 1)


def _acc24() -> TieState:
    return TieState("acc24", width=24)


def mac8_spec() -> TieSpec:
    """``mac8 rs`` — acc24 += rs[7:0] * rs[15:8] (narrow MAC sibling)."""
    spec = TieSpec("mac8", fmt="RS1", description="acc24 += rs[7:0] * rs[15:8]")
    acc = spec.use_state(_acc24())
    word = spec.source("rs", width=16)
    a = spec.slice(word, 0, 8)
    b = spec.slice(word, 8, 8)
    spec.write_state(acc, spec.tie_mac(a, b, spec.read_state(acc), width=24))
    return spec


def rdmac8_spec() -> TieSpec:
    """``rdmac8 rd`` — rd = acc24 (zero-extended)."""
    spec = TieSpec("rdmac8", fmt="RD1", description="rd = acc24")
    acc = spec.use_state(_acc24())
    spec.result(spec.zero_extend(spec.read_state(acc), 32))
    return spec


def ref_mac8_step(acc: int, word: int) -> int:
    a = word & 0xFF
    b = (word >> 8) & 0xFF
    return (acc + a * b) & ((1 << 24) - 1)


# ---------------------------------------------------------------------------
# ADD_SUB_CMP — SIMD byte adder and compare/select helpers
# ---------------------------------------------------------------------------


def add4x8_spec() -> TieSpec:
    """``add4x8 rd, rs, rt`` — four independent 8-bit adds (SIMD)."""
    spec = TieSpec("add4x8", fmt="R3", description="rd = rs +8+8+8+8 rt (per-byte, wrap)")
    a = spec.source("rs")
    b = spec.source("rt")
    sums = [
        spec.add(spec.slice(a, i * 8, 8), spec.slice(b, i * 8, 8), width=8)
        for i in range(4)
    ]
    low = spec.concat(sums[1], sums[0])
    high = spec.concat(sums[3], sums[2])
    spec.result(spec.concat(high, low))
    return spec


def ref_add4x8(a: int, b: int) -> int:
    out = 0
    for i in range(4):
        byte = ((a >> (8 * i)) + (b >> (8 * i))) & 0xFF
        out |= byte << (8 * i)
    return out


def max2_spec() -> TieSpec:
    """``max2 rd, rs, rt`` — rd = unsigned max (single comparator)."""
    spec = TieSpec("max2", fmt="R3", description="rd = max_u(rs, rt)")
    spec.result(spec.maximum(spec.source("rs"), spec.source("rt")))
    return spec


def min2_spec() -> TieSpec:
    """``min2 rd, rs, rt`` — rd = unsigned min."""
    spec = TieSpec("min2", fmt="R3", description="rd = min_u(rs, rt)")
    spec.result(spec.minimum(spec.source("rs"), spec.source("rt")))
    return spec


def absdiff_spec() -> TieSpec:
    """``absdiff rd, rs, rt`` — rd = |rs - rt| (unsigned compare + mux)."""
    spec = TieSpec("absdiff", fmt="R3", description="rd = |rs - rt| (unsigned)")
    a = spec.source("rs")
    b = spec.source("rt")
    d1 = spec.sub(a, b)
    d2 = spec.sub(b, a)
    spec.result(spec.mux(spec.compare("ge_u", a, b), d1, d2))
    return spec


def ref_absdiff(a: int, b: int) -> int:
    return (a - b) & 0xFFFFFFFF if a >= b else (b - a) & 0xFFFFFFFF


def sat8_spec() -> TieSpec:
    """``sat8 rd, rs`` — clamp an unsigned word to [0, 255]."""
    spec = TieSpec("sat8", fmt="R2", description="rd = min(rs, 255)")
    a = spec.source("rs")
    limit = spec.const(255, 32)
    over = spec.compare("ge_u", a, spec.const(256, 32))
    spec.result(spec.mux(over, limit, a))
    return spec


def ref_sat8(a: int) -> int:
    return 255 if a > 255 else a


# ---------------------------------------------------------------------------
# TIE_CSA + TIE_ADD — three-term compressed addition
# ---------------------------------------------------------------------------


def sum3_spec() -> TieSpec:
    """``sum3 rd, rs, rt`` — rd = rs.lo16 + rs.hi16 + rt.lo16 via CSA."""
    spec = TieSpec("sum3", fmt="R3", description="rd = rs[15:0] + rs[31:16] + rt[15:0]")
    a_word = spec.source("rs")
    b_word = spec.source("rt", width=16)
    lo = spec.slice(a_word, 0, 16)
    hi = spec.slice(a_word, 16, 16)
    lo18 = spec.zero_extend(lo, 18)
    hi18 = spec.zero_extend(hi, 18)
    b18 = spec.zero_extend(b_word, 18)
    partial_sum, partial_carry = spec.csa(lo18, hi18, b18, width=18)
    spec.result(spec.tie_add(partial_sum, partial_carry, width=18))
    return spec


def ref_sum3(a: int, b: int) -> int:
    return ((a & 0xFFFF) + ((a >> 16) & 0xFFFF) + (b & 0xFFFF)) & 0x3FFFF


def sum4_spec() -> TieSpec:
    """``sum4 rd, rs`` — sum the four bytes of ``rs`` (multi-operand adder).

    Uses the TIE_add module *without* a CSA stage — together with
    :func:`sum3_spec` this makes the TIE_add and TIE_csa structural
    variables separately identifiable during characterization.
    """
    spec = TieSpec("sum4", fmt="R2", description="rd = rs[7:0]+rs[15:8]+rs[23:16]+rs[31:24]")
    word = spec.source("rs")
    terms = [spec.zero_extend(spec.slice(word, i * 8, 8), 10) for i in range(4)]
    spec.result(spec.tie_add(*terms, width=10))
    return spec


def ref_sum4(a: int) -> int:
    return sum((a >> (8 * i)) & 0xFF for i in range(4)) & 0x3FF


# ---------------------------------------------------------------------------
# TABLE — GF(2^8) multiply and S-box substitution
# ---------------------------------------------------------------------------


def gfmul_spec() -> TieSpec:
    """``gfmul rd, rs, rt`` — GF(2^8) product via log/antilog tables."""
    spec = TieSpec("gfmul", fmt="R3", description="rd = rs *GF(256) rt (0x11D)")
    log_data = list(gf.log_table())
    alog_data = list(gf.alog_table())
    a = spec.source("rs", width=8)
    b = spec.source("rt", width=8)
    log_a = spec.table("gflog_a", log_data, a, out_width=8)
    log_b = spec.table("gflog_b", log_data, b, out_width=8)
    total = spec.add(spec.zero_extend(log_a, 9), spec.zero_extend(log_b, 9), width=9)
    wrapped = spec.sub(total, spec.const(255, 9), width=9)
    needs_wrap = spec.compare("ge_u", total, spec.const(255, 9))
    index = spec.slice(spec.mux(needs_wrap, wrapped, total), 0, 8)
    product = spec.table("gfalog", alog_data, index, out_width=8)
    zero = spec.const(0, 8)
    a_is_zero = spec.compare("eq", a, spec.const(0, 8))
    b_is_zero = spec.compare("eq", b, spec.const(0, 8))
    either_zero = spec.bit_or(a_is_zero, b_is_zero)
    spec.result(spec.mux(either_zero, zero, product))
    return spec


def ref_gfmul(a: int, b: int) -> int:
    return gf.gf_mult(a & 0xFF, b & 0xFF)


def _gfstate() -> TieState:
    return TieState("gfacc", width=8)


def gfmac_spec() -> TieSpec:
    """``gfmac rs, rt`` — gfacc = gfacc*GF rt ^ rs (Horner syndrome step)."""
    spec = TieSpec("gfmac", fmt="RS1", description="gfacc = gfacc *GF rs[15:8] ^ rs[7:0]")
    acc = spec.use_state(_gfstate())
    log_data = list(gf.log_table())
    alog_data = list(gf.alog_table())
    word = spec.source("rs", width=16)
    symbol = spec.slice(word, 0, 8)
    alpha = spec.slice(word, 8, 8)
    a = spec.read_state(acc)
    log_a = spec.table("gflog_acc", log_data, a, out_width=8)
    log_alpha = spec.table("gflog_alpha", log_data, alpha, out_width=8)
    total = spec.add(spec.zero_extend(log_a, 9), spec.zero_extend(log_alpha, 9), width=9)
    wrapped = spec.sub(total, spec.const(255, 9), width=9)
    needs_wrap = spec.compare("ge_u", total, spec.const(255, 9))
    index = spec.slice(spec.mux(needs_wrap, wrapped, total), 0, 8)
    product = spec.table("gfalog_m", alog_data, index, out_width=8)
    a_is_zero = spec.compare("eq", a, spec.const(0, 8))
    alpha_is_zero = spec.compare("eq", alpha, spec.const(0, 8))
    either_zero = spec.bit_or(a_is_zero, alpha_is_zero)
    scaled = spec.mux(either_zero, spec.const(0, 8), product)
    spec.write_state(acc, spec.bit_xor(scaled, symbol))
    return spec


def rdgf_spec() -> TieSpec:
    """``rdgf rd`` — rd = gfacc (and exposes the accumulator for tests)."""
    spec = TieSpec("rdgf", fmt="RD1", description="rd = gfacc")
    acc = spec.use_state(_gfstate())
    spec.result(spec.zero_extend(spec.read_state(acc), 32))
    return spec


def wrgf_spec() -> TieSpec:
    """``wrgf rs`` — gfacc = rs[7:0]."""
    spec = TieSpec("wrgf", fmt="RS1", description="gfacc = rs[7:0]")
    acc = spec.use_state(_gfstate())
    spec.write_state(acc, spec.source("rs", width=8))
    return spec


def ref_gfmac_step(acc: int, symbol: int, alpha: int) -> int:
    return gf.gf_mult(acc, alpha) ^ symbol


#: A small DES-flavoured 6-bit -> 4-bit substitution box (S1 of DES).
SBOX_6TO4: tuple[int, ...] = (
    14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
    0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
    4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
    15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
)


def sbox_spec() -> TieSpec:
    """``sbox48 rd, rs`` — DES-style 6-bit -> 4-bit S-box substitution."""
    spec = TieSpec("sbox48", fmt="R2", description="rd = S1[rs[5:0]] (DES S-box)")
    index = spec.source("rs", width=6)
    spec.result(spec.zero_extend(spec.table("sbox1", list(SBOX_6TO4), index, out_width=4), 32))
    return spec


def ref_sbox(index: int) -> int:
    return SBOX_6TO4[index & 0x3F]


# ---------------------------------------------------------------------------
# MULT + SHIFTER — alpha blending
# ---------------------------------------------------------------------------


def blend8_spec() -> TieSpec:
    """``blend8 rd, rs, rt`` — rd = (a*alpha + b*(256-alpha)) >> 8.

    ``rs`` packs the two 8-bit source pixels (a in [7:0], b in [15:8]);
    ``rt`` carries the 9-bit alpha in [8:0] (0..256).
    """
    spec = TieSpec("blend8", fmt="R3", description="rd = (a*alpha + b*(256-alpha)) >> 8")
    pixels = spec.source("rs", width=16)
    alpha = spec.source("rt", width=9)
    a = spec.slice(pixels, 0, 8)
    b = spec.slice(pixels, 8, 8)
    inv_alpha = spec.sub(spec.const(256, 9), alpha, width=9)
    term_a = spec.mul(a, alpha, width=17)
    term_b = spec.mul(b, inv_alpha, width=17)
    total = spec.add(term_a, term_b, width=18)
    shifted = spec.shift_right(total, spec.const(8, 4), width=18)
    spec.result(spec.slice(shifted, 0, 8))
    return spec


def ref_blend8(a: int, b: int, alpha: int) -> int:
    return (((a & 0xFF) * alpha + (b & 0xFF) * (256 - alpha)) >> 8) & 0xFF


def sqr16_spec() -> TieSpec:
    """``sqr16 rd, rs`` — rd = low16(rs)^2 on a general multiplier.

    The only spec whose datapath is *purely* the general multiplier
    category, which keeps the ``S_mult`` coefficient identifiable
    independently of the composite datapaths (e.g. blend8).
    """
    spec = TieSpec("sqr16", fmt="R2", description="rd = rs[15:0] squared")
    a = spec.source("rs", width=16)
    spec.result(spec.mul(a, a))
    return spec


def ref_sqr16(a: int) -> int:
    value = a & 0xFFFF
    return (value * value) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# LOGIC_RED_MUX + SHIFTER — parity and shift-mix
# ---------------------------------------------------------------------------


def parity32_spec() -> TieSpec:
    """``parity32 rd, rs`` — rd = XOR-reduction of all 32 bits."""
    spec = TieSpec("parity32", fmt="R2", description="rd = ^rs (parity)")
    spec.result(spec.zero_extend(spec.reduce_xor(spec.source("rs")), 32))
    return spec


def ref_parity32(a: int) -> int:
    return bin(a & 0xFFFFFFFF).count("1") & 1


def shiftmix_spec() -> TieSpec:
    """``shiftmix rd, rs, rt`` — rd = (rs << (rt & 31)) ^ rs (hash mix)."""
    spec = TieSpec("shiftmix", fmt="R3", description="rd = (rs << rt[4:0]) ^ rs")
    a = spec.source("rs")
    amount = spec.source("rt", width=5)
    shifted = spec.shift_left(a, amount, width=32)
    spec.result(spec.bit_xor(shifted, a))
    return spec


def ref_shiftmix(a: int, amount: int) -> int:
    return ((a << (amount & 31)) ^ a) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Extension bundles (named groups used by benchmark configurations)
# ---------------------------------------------------------------------------

#: All spec factories, keyed by mnemonic — for enumeration in tests.
ALL_SPEC_FACTORIES = {
    "mul16": mul16_spec,
    "mul8": mul8_spec,
    "min2h": min2h_spec,
    "swz": swz_spec,
    "mac16": mac16_spec,
    "mac8": mac8_spec,
    "rdmac8": rdmac8_spec,
    "rdmac": rdmac_spec,
    "wrmac": wrmac_spec,
    "add4x8": add4x8_spec,
    "max2": max2_spec,
    "min2": min2_spec,
    "absdiff": absdiff_spec,
    "sat8": sat8_spec,
    "sum3": sum3_spec,
    "sum4": sum4_spec,
    "gfmul": gfmul_spec,
    "gfmac": gfmac_spec,
    "rdgf": rdgf_spec,
    "wrgf": wrgf_spec,
    "sbox48": sbox_spec,
    "sqr16": sqr16_spec,
    "blend8": blend8_spec,
    "parity32": parity32_spec,
    "shiftmix": shiftmix_spec,
}


def extension_specs(mnemonics: Iterable[str]) -> list[TieSpec]:
    """Fresh specs for custom-instruction mnemonics, in the order given.

    Raises :class:`ValueError` naming the unknown mnemonic and every
    available one.
    """
    specs = []
    for mnemonic in mnemonics:
        factory = ALL_SPEC_FACTORIES.get(mnemonic)
        if factory is None:
            raise ValueError(
                f"unknown extension {mnemonic!r}; available: "
                + ", ".join(sorted(ALL_SPEC_FACTORIES))
            )
        specs.append(factory())
    return specs
