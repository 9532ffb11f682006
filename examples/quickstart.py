"""Quickstart: estimate the energy of a program on an extended processor.

Walks the paper's whole story in one page:

1. define a custom (TIE-substitute) instruction;
2. build an extended processor and run a program on it;
3. characterize the processor family once (regression macro-model);
4. estimate the program's energy the fast way (no RTL) and compare with
   the slow reference estimator.

Run:  python examples/quickstart.py
"""

from repro import TieSpec, build_processor, reference_energy
from repro.analysis import default_context
from repro.asm import assemble
from repro.obs import run_session


def make_sataccum() -> TieSpec:
    """A saturating byte accumulator: rd = min(rs + rt, 255)."""
    spec = TieSpec("sataccum", fmt="R3", description="rd = sat8(rs + rt)")
    a = spec.source("rs", width=8)
    b = spec.source("rt", width=8)
    total = spec.add(a, b, width=9)
    clamped = spec.mux(
        spec.compare("ge_u", total, spec.const(256, 9)),
        spec.const(255, 9),
        total,
    )
    spec.result(clamped)
    return spec


SOURCE = """
    .data
pixels:
    .byte 200, 100, 255, 30, 99, 250, 8, 77, 180, 60, 240, 15, 90, 200, 5, 128
out: .word 0
    .text
main:
    la a2, pixels
    movi a3, 8          ; pairs
    movi a6, 0          ; sum of saturated pair sums
loop:
    l8ui a4, a2, 0
    l8ui a5, a2, 1
    sataccum a7, a4, a5
    add a6, a6, a7
    addi a2, a2, 2
    addi a3, a3, -1
    bnez a3, loop
    la a2, out
    s32i a6, a2, 0
    halt
"""


def main() -> None:
    # 1-2. extended processor + functional simulation
    config = build_processor("quickstart", [make_sataccum()])
    print(config.describe())
    program = assemble(SOURCE, "quickstart", isa=config.isa)
    result = run_session(config, program)
    print(f"\nprogram output: {result.word('out')}  "
          f"({result.instructions} instructions, {result.cycles} cycles)\n")

    # 3. the macro-model is characterized once per processor *family*
    #    (this runs the full flow over the bundled 50-program suite; ~10 s)
    print("characterizing the processor family (one-time cost)...")
    model = default_context().model

    # 4. fast estimation vs slow reference
    estimate = model.estimate(config, program)
    reference, _ = reference_energy(config, program)
    error = 100.0 * (estimate.energy - reference.total) / reference.total
    print(f"\nmacro-model estimate : {estimate.energy:12.1f} units   (ISS only)")
    print(f"reference (RTL-level): {reference.total:12.1f} units   (netlist + trace walk)")
    print(f"estimation error     : {error:+.2f}%")


if __name__ == "__main__":
    main()
