"""ISS retire throughput: reference interpreter vs the two dispatch loops.

Measures retired-MIPS (millions of retired instructions per second of
host wall-clock) on the bundled characterization programs for three
paths:

* ``interpreted`` — :class:`repro.xtcore.ReferenceSimulator`, the
  oracle pre-compilation loop;
* ``instrumented`` — the per-op compiled dispatch loop with an external
  retire observer subscribed (full event protocol active);
* ``superop`` — block-level fused dispatch (one Python call per basic
  block; what every run without per-retire observers or a trace takes).

A batch section additionally measures :func:`repro.xtcore.run_batch`
(one program across N cache/clock variants in a single pass) against
the same N runs done solo through the superop loop.

A fusion section times cold runs (fresh compilation cache, so every
lowering and every fused region is made inside the timed run) of the
bundled suite and of the four Reed-Solomon implementations of the
``reed_solomon_tuned`` space under several superop fusion rules: the
dispatch loop's committed payback constant (``iss._FUSE_AFTER_OPS``),
fuse-on-second-entry (a constant of one op), never-fuse, and a sweep of
other constants.  Each set's time is the sum over its programs of the
best of nine runs, the rules interleaved; each rule also
records the regions fused per cold pass over the set.  This script sets
the private constant itself; nothing in ``src/`` reads an override.

A front-end section times the static layers of a cold one-shot
estimate of each of the 66 bundled programs, as ``repro estimate`` runs
one (fresh compilation cache, freshly built processor): assembly per
source line; the cache key (``lowering_key`` and ``Program.digest``)
and ``compile_program`` per instruction; and their share of the whole
cold estimate (TIE build, assembly, key, lowering, dispatch, extraction
and dot product) with the committed fixture model.  Each layer keeps
its best of several rounds over the programs.

Run as a script to (re)generate ``BENCH_ISS.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_iss_throughput.py

or as a CI smoke check on a couple of programs:

    PYTHONPATH=src python benchmarks/bench_iss_throughput.py \
        --programs tp01_alu_mix tp05_memcpy --repeat 2 --check

``--check`` fails when either compiled loop drops below the interpreter
on any program, when the superop loop is slower than the instrumented
loop on any program (the un-instrumented path must pay for itself), when
``run_batch`` is slower than the solo runs or any member's stats differ
from its solo run, or when the committed payback constant is slower
than fuse-on-second-entry on either fusion set, or when the front end's
share of a cold estimate exceeds ``FRONT_END_SHARE_BOUND``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import pathlib
import platform
import time

import pytest

from repro.asm import assemble
from repro.core import EnergyMacroModel
from repro.obs import SimObserver
from repro.programs import application_suite, characterization_suite
from repro.programs.extensions import ALL_SPEC_FACTORIES
from repro.programs.reed_solomon import reed_solomon_choices
from repro.xtcore import (
    ReferenceSimulator,
    Simulator,
    build_processor,
    compilation_cache,
    compile_program,
    iss,
    run_batch,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_ISS.json"


class NullRetireObserver(SimObserver):
    """Subscribes to retires and does nothing — forces the instrumented path."""

    wants_retire = True

    def on_retire(self, event) -> None:
        pass


def _measure(make_runner, repeat: int) -> tuple[float, int]:
    """Best-of-``repeat`` (MIPS, retired instructions) for one path."""
    best_mips = 0.0
    retired = 0
    for _ in range(repeat):
        runner = make_runner()
        start = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - start
        retired = result.stats.total_instructions
        best_mips = max(best_mips, retired / elapsed / 1e6)
    return best_mips, retired


def measure_case(case, repeat: int = 3) -> dict:
    """Throughput of the interpreter and both dispatch loops on one case."""
    config, program = case.build()
    executable = compile_program(config, program)
    budget = case.max_instructions

    interp_mips, retired = _measure(
        lambda: ReferenceSimulator(config, program, max_instructions=budget),
        repeat,
    )
    instr_mips, _ = _measure(
        lambda: Simulator(
            config,
            program,
            max_instructions=budget,
            observers=[NullRetireObserver()],
            executable=executable,
        ),
        repeat,
    )
    superop_mips, _ = _measure(
        lambda: Simulator(
            config, program, max_instructions=budget, executable=executable
        ),
        repeat,
    )
    return {
        "program": case.name,
        "retired_instructions": retired,
        "interpreted_mips": round(interp_mips, 3),
        "instrumented_mips": round(instr_mips, 3),
        "superop_mips": round(superop_mips, 3),
        "instrumented_speedup": round(instr_mips / interp_mips, 2),
        "superop_speedup": round(superop_mips / interp_mips, 2),
        "superop_vs_instrumented": round(superop_mips / instr_mips, 2),
    }


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _batch_variants(base, count: int):
    """``count`` cache/clock variants of ``base`` in one semantic partition."""
    variants = []
    lines = (16, 32, 64)
    for i in range(count):
        line = lines[i % len(lines)]
        variants.append(
            dataclasses.replace(
                base,
                name=f"{base.name}-v{i}",
                clock_mhz=base.clock_mhz + 10.0 * i,
                icache=dataclasses.replace(base.icache, line_bytes=line),
                dcache=dataclasses.replace(
                    base.dcache,
                    line_bytes=line,
                    miss_penalty=base.dcache.miss_penalty + (i % 4),
                ),
            )
        )
    return variants


def measure_batch(case, n_configs: int = 16, repeat: int = 3) -> dict:
    """One program x N configs: run_batch vs the same N solo superop runs."""
    config, program = case.build()
    configs = _batch_variants(config, n_configs)
    budget = case.max_instructions

    solo_best = float("inf")
    batch_best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        solo = [
            Simulator(variant, program, max_instructions=budget).run()
            for variant in configs
        ]
        solo_best = min(solo_best, time.perf_counter() - start)

        start = time.perf_counter()
        results = run_batch(configs, program, max_instructions=budget)
        batch_best = min(batch_best, time.perf_counter() - start)
    return {
        "program": case.name,
        "configs": n_configs,
        "stats_mismatches": [
            config.name
            for config, alone, batched in zip(configs, solo, results)
            if alone.stats != batched.stats
        ],
        "retired_instructions": results[0].stats.total_instructions,
        "solo_configs_per_second": round(n_configs / solo_best, 2),
        "batch_configs_per_second": round(n_configs / batch_best, 2),
        "batch_speedup": round(solo_best / batch_best, 2),
    }


#: The committed payback constant, read before any rule patches it.
COMMITTED_FUSE_AFTER = iss._FUSE_AFTER_OPS

#: Fusion rules as payback constants: ops a region retires op by op
#: before its next entry fuses it.  One op is the fuse-on-second-entry
#: rule; infinity never fuses.
FUSION_RULES = {
    "payback": COMMITTED_FUSE_AFTER,
    "second_entry": 1,
    "never": math.inf,
}

#: Other constants timed next to the rules, to show where the committed
#: one sits.
FUSION_SWEEP = (16, 32, 64, 96, 128, 192, 256, 512)

#: Cold runs per program and constant; the best is kept.  Fewer let
#: host noise decide the suite's payback/second-entry comparison.
FUSION_REPEAT = 9


def _cold_run(case, fuse_after) -> tuple[float, int]:
    """One run of ``case`` from a fresh compilation cache under ``fuse_after``.

    Returns ``(seconds, regions fused)``.  The lowering, region cutting
    and every fused region are made inside the timed span.
    """
    config, program = case.build()
    cache = compilation_cache()
    cache.clear()
    iss._FUSE_AFTER_OPS = fuse_after
    try:
        start = time.perf_counter()
        Simulator(config, program, max_instructions=case.max_instructions).run()
        elapsed = time.perf_counter() - start
    finally:
        iss._FUSE_AFTER_OPS = COMMITTED_FUSE_AFTER
    return elapsed, cache.info()["regions_fused"]


def measure_fusion(cases, repeat: int = FUSION_REPEAT) -> dict:
    """Cold-run time and regions fused of ``cases`` under each fusion rule.

    Per program, every constant runs once per round (the order reversed
    on odd rounds) for ``repeat`` rounds and keeps its best time; a
    set's time is the sum of its programs' best times.  The cyclic
    garbage collector runs between rounds, never inside a timed run.
    """
    constants = sorted({*FUSION_RULES.values(), *FUSION_SWEEP})
    best = {constant: 0.0 for constant in constants}
    fused = {constant: 0 for constant in constants}
    gc.disable()
    try:
        for case in cases:
            times = {constant: math.inf for constant in constants}
            for round_ in range(repeat):
                gc.collect()
                for constant in constants if round_ % 2 == 0 else constants[::-1]:
                    seconds, regions = _cold_run(case, constant)
                    times[constant] = min(times[constant], seconds)
                    if round_ == 0:
                        fused[constant] += regions
            for constant in constants:
                best[constant] += times[constant]
    finally:
        gc.enable()

    def row(constant) -> dict:
        return {"ms": round(best[constant] * 1e3, 3), "regions_fused": fused[constant]}

    return {
        "programs": [case.name for case in cases],
        "rules": {name: row(constant) for name, constant in FUSION_RULES.items()},
        "sweep": {str(constant): row(constant) for constant in FUSION_SWEEP},
    }


def fusion_section() -> dict:
    """The ``fusion`` payload: both sets under every rule."""
    return {
        "fuse_after_ops": COMMITTED_FUSE_AFTER,
        "repeat": FUSION_REPEAT,
        "unit": "ms, sum over programs of the best cold run",
        "sets": {
            "suite": measure_fusion(characterization_suite(include_variants=False)),
            "reed_solomon_tuned": measure_fusion(reed_solomon_choices()),
        },
    }


#: Model the front-end section's cold estimates use (any fitted model
#: prices a run the same way; this one is committed).
FRONT_END_MODEL = ROOT / "perfbench" / "data" / "model_fixture.json"

#: Rounds over the programs in the front-end section; each layer of each
#: program keeps its best.
FRONT_END_REPEAT = 7

#: Layers of a cold estimate the front-end section times, in run order.
FRONT_END_LAYERS = ("build", "assemble", "lowering_key", "digest", "compile_program", "rest")

#: ``--check`` fails when the front end (assemble + lowering_key + digest
#: + compile_program) exceeds this share of a whole cold estimate.  The
#: share read 0.373-0.376 in four runs before the assembler, lowering-key
#: and compile_program fast paths and 0.275-0.287 in nine runs after them
#: (x86-64, 2 CPUs, Python 3.11.7); the bound sits halfway, so losing
#: about half of the saving fails.
FRONT_END_SHARE_BOUND = 0.32


def _cold_estimate_layers(model, case, factories) -> dict:
    """One cold estimate of ``case`` on a processor built from ``factories``:
    seconds per layer, in run order."""
    compilation_cache().clear()
    stamps = [time.perf_counter()]
    config = build_processor(case.name, [factory() for factory in factories])
    config.isa
    stamps.append(time.perf_counter())
    program = assemble(case.source, case.name, isa=config.isa)
    stamps.append(time.perf_counter())
    config.lowering_key
    stamps.append(time.perf_counter())
    program.digest()
    stamps.append(time.perf_counter())
    compilation_cache().get_or_compile(config, program)  # the estimate reuses it
    stamps.append(time.perf_counter())
    model.estimate(config, program, max_instructions=case.max_instructions)
    stamps.append(time.perf_counter())
    return {
        layer: stamps[i + 1] - stamps[i] for i, layer in enumerate(FRONT_END_LAYERS)
    } | {"instructions": len(program)}


def front_end_section(repeat: int = FRONT_END_REPEAT) -> dict:
    """Per-program front-end costs of a cold estimate, and their share."""
    model = EnergyMacroModel.load(FRONT_END_MODEL)
    cases = characterization_suite() + application_suite()
    # a case may run on a shared, prebuilt processor: rebuild its
    # extension from the spec factories, as `repro estimate` does
    factories = [
        [ALL_SPEC_FACTORIES[impl.mnemonic] for impl in case.config.extensions]
        for case in cases
    ]
    best = [dict.fromkeys(FRONT_END_LAYERS, math.inf) for _ in cases]
    instructions = [0] * len(cases)
    gc.disable()
    try:
        for _ in range(repeat):
            gc.collect()
            for index, case in enumerate(cases):
                times = _cold_estimate_layers(model, case, factories[index])
                instructions[index] = times["instructions"]
                for layer in FRONT_END_LAYERS:
                    best[index][layer] = min(best[index][layer], times[layer])
    finally:
        gc.enable()

    def per(seconds: float, count: int) -> float:
        return round(seconds / count * 1e6, 2)

    rows = []
    for case, row, count in zip(cases, best, instructions):
        lines = len(case.source.splitlines())
        rows.append(
            {
                "program": case.name,
                "lines": lines,
                "instructions": count,
                "assemble_us_per_line": per(row["assemble"], lines),
                "lowering_key_us_per_instruction": per(row["lowering_key"], count),
                "digest_us_per_instruction": per(row["digest"], count),
                "compile_program_us_per_instruction": per(row["compile_program"], count),
                "cold_estimate_ms": round(sum(row.values()) * 1e3, 3),
            }
        )
    sums = {layer: sum(row[layer] for row in best) for layer in FRONT_END_LAYERS}
    front = sums["assemble"] + sums["lowering_key"] + sums["digest"] + sums["compile_program"]
    return {
        "programs": len(cases),
        "repeat": repeat,
        "unit": "best of the rounds per program and layer; a cold estimate from a fresh cache",
        "per_program": rows,
        "summary": {
            **{f"{layer}_ms": round(seconds * 1e3, 3) for layer, seconds in sums.items()},
            "cold_estimate_ms": round(sum(sums.values()) * 1e3, 3),
            "front_end_share": round(front / sum(sums.values()), 4),
            "share_bound": FRONT_END_SHARE_BOUND,
        },
    }


def run_suite(program_names=None, repeat: int = 3, batch_configs: int = 16) -> dict:
    """Measure the (sub)suite and assemble the BENCH_ISS payload."""
    cases = characterization_suite(include_variants=False)
    if program_names:
        by_name = {case.name: case for case in cases}
        unknown = [n for n in program_names if n not in by_name]
        if unknown:
            raise SystemExit(f"unknown program(s): {', '.join(unknown)}")
        cases = [by_name[n] for n in program_names]
    results = [measure_case(case, repeat=repeat) for case in cases]
    return {
        "benchmark": "iss_retire_throughput",
        "unit": "retired MIPS (best of repeats, host wall-clock)",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "repeat": repeat,
        "programs": results,
        "batch": measure_batch(cases[0], n_configs=batch_configs, repeat=repeat),
        "fusion": fusion_section(),
        "front_end": front_end_section(),
        "summary": {
            "instrumented_speedup_geomean": round(
                _geomean([r["instrumented_speedup"] for r in results]), 2
            ),
            "superop_speedup_geomean": round(
                _geomean([r["superop_speedup"] for r in results]), 2
            ),
            "superop_vs_instrumented_min": min(
                r["superop_vs_instrumented"] for r in results
            ),
            "targets": {"instrumented": 3.0, "superop": 10.0},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--programs",
        nargs="*",
        default=None,
        help="benchmark case names to measure (default: the full suite)",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--batch-configs",
        type=int,
        default=16,
        help="config count for the run_batch measurement (default 16)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON payload (default: repo-root BENCH_ISS.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if a dispatch loop is slower than the interpreter, "
        "or superop slower than instrumented, on any program, if run_batch "
        "is slower than solo runs or disagrees with them, if payback "
        "fusion is slower than fuse-on-second-entry on either set, or if "
        "the front end's share of a cold estimate exceeds its bound",
    )
    args = parser.parse_args(argv)

    payload = run_suite(
        args.programs,
        repeat=args.repeat,
        batch_configs=args.batch_configs,
    )
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    header = (
        f"{'program':<24}{'interp':>9}{'instr':>9}{'superop':>9}"
        f"{'instr x':>9}{'sup x':>7}{'sup/instr':>11}"
    )
    print(header)
    print("-" * len(header))
    for row in payload["programs"]:
        print(
            f"{row['program']:<24}{row['interpreted_mips']:>9.2f}"
            f"{row['instrumented_mips']:>9.2f}{row['superop_mips']:>9.2f}"
            f"{row['instrumented_speedup']:>9.2f}{row['superop_speedup']:>7.2f}"
            f"{row['superop_vs_instrumented']:>11.2f}"
        )
    summary = payload["summary"]
    batch = payload["batch"]
    print(
        f"geomean speedup: instrumented {summary['instrumented_speedup_geomean']}x, "
        f"superop {summary['superop_speedup_geomean']}x "
        f"(superop/instrumented min {summary['superop_vs_instrumented_min']}x)"
    )
    print(
        f"batch: {batch['program']} x {batch['configs']} configs: "
        f"{batch['solo_configs_per_second']} solo vs "
        f"{batch['batch_configs_per_second']} batched configs/s "
        f"({batch['batch_speedup']}x)  -> {args.output}"
    )
    fusion = payload["fusion"]
    for name, fusion_set in fusion["sets"].items():
        print(
            f"fusion {name} (cold, ms / regions fused): "
            + ", ".join(
                f"{rule} {row['ms']:.2f}/{row['regions_fused']}"
                for rule, row in fusion_set["rules"].items()
            )
        )
        print(
            "  sweep: "
            + ", ".join(
                f"{constant} {row['ms']:.2f}/{row['regions_fused']}"
                for constant, row in fusion_set["sweep"].items()
            )
        )

    front = payload["front_end"]["summary"]
    print(
        f"front end of {payload['front_end']['programs']} cold estimates (ms): "
        f"assemble {front['assemble_ms']:.2f}, lowering_key {front['lowering_key_ms']:.2f}, "
        f"digest {front['digest_ms']:.2f}, compile_program {front['compile_program_ms']:.2f} "
        f"of {front['cold_estimate_ms']:.2f} "
        f"(share {front['front_end_share']:.3f}, bound {front['share_bound']})"
    )

    if args.check:
        failed = False
        slow = [
            row["program"]
            for row in payload["programs"]
            if row["instrumented_speedup"] < 1.0 or row["superop_speedup"] < 1.0
        ]
        if slow:
            print(f"CHECK FAILED: compiled dispatch slower than interpreter on: {slow}")
            failed = True
        behind = [
            f"{row['program']} ({row['superop_vs_instrumented']}x)"
            for row in payload["programs"]
            if row["superop_mips"] < row["instrumented_mips"]
        ]
        if behind:
            print(f"CHECK FAILED: superop slower than instrumented on: {behind}")
            failed = True
        if batch["stats_mismatches"]:
            print(
                "CHECK FAILED: run_batch stats differ from solo runs for: "
                f"{batch['stats_mismatches']}"
            )
            failed = True
        if batch["batch_speedup"] < 1.0:
            print(f"CHECK FAILED: run_batch slower than solo runs ({batch['batch_speedup']}x)")
            failed = True
        behind_rule = [
            f"{name} ({rules['payback']['ms']} > {rules['second_entry']['ms']} ms)"
            for name, fusion_set in fusion["sets"].items()
            for rules in (fusion_set["rules"],)
            if rules["payback"]["ms"] > rules["second_entry"]["ms"]
        ]
        if behind_rule:
            print(
                f"CHECK FAILED: payback fusion ({fusion['fuse_after_ops']} ops) "
                f"slower than fuse-on-second-entry on: {behind_rule}"
            )
            failed = True
        if front["front_end_share"] > front["share_bound"]:
            print(
                f"CHECK FAILED: the front end is {front['front_end_share']} of a cold "
                f"estimate (bound {front['share_bound']})"
            )
            failed = True
        if failed:
            return 1
        print(
            "CHECK OK: both dispatch loops at least as fast as the interpreter, "
            "superop >= instrumented on every program, batch >= solo with "
            "equal stats for every member, payback fusion no slower than "
            "fuse-on-second-entry on either set, front-end share within its bound"
        )
    return 0


# -- pytest-benchmark harness ------------------------------------------------

SMOKE_CASES = ("tp01_alu_mix", "tp06_memcpy")


@pytest.fixture(scope="module")
def smoke_case():
    cases = {c.name: c for c in characterization_suite(include_variants=False)}
    return cases[SMOKE_CASES[0]]


def test_fast_path_throughput(benchmark, smoke_case):
    config, program = smoke_case.build()
    executable = compile_program(config, program)
    result = benchmark(
        lambda: Simulator(
            config,
            program,
            max_instructions=smoke_case.max_instructions,
            executable=executable,
        ).run()
    )
    assert result.stats.total_instructions > 0


def test_compiled_not_slower_than_interpreter(benchmark, save_report):
    payload = benchmark.pedantic(
        run_suite, args=(list(SMOKE_CASES),), kwargs={"repeat": 2}, rounds=1, iterations=1
    )
    lines = [
        f"{row['program']}: interpreted {row['interpreted_mips']} MIPS, "
        f"instrumented {row['instrumented_mips']} MIPS "
        f"({row['instrumented_speedup']}x), superop {row['superop_mips']} MIPS "
        f"({row['superop_speedup']}x)"
        for row in payload["programs"]
    ]
    save_report("iss_throughput", "\n".join(lines))
    for row in payload["programs"]:
        assert row["instrumented_speedup"] >= 1.0, row
        assert row["superop_speedup"] >= 1.0, row
        assert row["superop_mips"] >= row["instrumented_mips"], row


if __name__ == "__main__":
    raise SystemExit(main())
