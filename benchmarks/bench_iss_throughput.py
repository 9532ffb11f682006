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

Run as a script to (re)generate ``BENCH_ISS.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_iss_throughput.py

or as a CI smoke check on a couple of programs:

    PYTHONPATH=src python benchmarks/bench_iss_throughput.py \
        --programs tp01_alu_mix tp05_memcpy --repeat 2 --check

``--check`` fails when either compiled loop drops below the interpreter
on any program, when the superop loop is slower than the instrumented
loop on any program (the un-instrumented path must pay for itself), or
when ``run_batch`` is slower than the solo runs or any member's stats
differ from its solo run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import platform
import time

import pytest

from repro.obs import SimObserver
from repro.programs import characterization_suite
from repro.xtcore import ReferenceSimulator, Simulator, compile_program, run_batch

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ISS.json"


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
        "or superop slower than instrumented, on any program, or if run_batch "
        "is slower than solo runs or disagrees with them",
    )
    args = parser.parse_args(argv)

    payload = run_suite(
        args.programs, repeat=args.repeat, batch_configs=args.batch_configs
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
        if failed:
            return 1
        print(
            "CHECK OK: both dispatch loops at least as fast as the interpreter, "
            "superop >= instrumented on every program, batch >= solo with "
            "equal stats for every member"
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
