"""DSE engine throughput: cold explorations, serial vs batched.

The exploration engine's whole value is candidates/second on the
macro-model fast path.  Run as a script to (re)generate
``BENCH_DSE.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_dse_throughput.py [--check]

It runs cold explorations of the tuned Reed-Solomon space crossed with
three DVFS points (each from a cleared compilation cache) and records
the time per exploration and its breakdown: per impl (build, compile,
simulate) and per candidate (build, estimate, score).  It also counts
how often an exploration derives each cache-independent config value
(``lowering_key``, ``semantic_fingerprint``) and generates a netlist
for the area proxy.  ``--check`` fails unless each of those counts
equals the number of distinct impls the exploration scored: candidates
that differ only in cache geometry or operating point derive nothing
again.  The timings are reported, not gated.

Under pytest-benchmark it times one seeded random sample of the tuned
Reed-Solomon space, then the batched evaluator: one program across 64
cache-geometry variants (a single semantic partition), scored through
one :func:`repro.xtcore.run_batch` pass versus 64 per-point runs.
"""

import argparse
import dataclasses
import functools
import json
import os
import pathlib
import platform
import statistics
import time
from collections import Counter
from unittest import mock

import pytest

import repro.dse.evaluate
import repro.dse.space
import repro.xtcore.batch
import repro.xtcore.compiled
from repro.core import EnergyMacroModel
from repro.dse import (
    EvaluationEngine,
    Knob,
    RandomStrategy,
    SearchSpace,
    explore,
    get_space,
    with_operating_points,
)
from repro.dse.cache import candidate_cache_key
from repro.programs import characterization_suite
from repro.tech import default_calibration
from repro.xtcore import (
    DEFAULT_MAX_INSTRUCTIONS,
    ProcessorConfig,
    build_processor,
    compilation_cache,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_DSE.json"
#: any fitted model prices a run the same way; this one is committed
MODEL = ROOT / "perfbench" / "data" / "model_fixture.json"

BUDGET = 12
BATCH_CONFIGS = 64

OP_POINTS = (
    "130nm@1.5V@400MHz",
    "90nm@1.2V@600MHz",
    "65nm@1.1V@800MHz",
    "45nm@1V@1200MHz",
)


@pytest.fixture(scope="module")
def space():
    return get_space("reed_solomon_tuned")


def _run(ctx, space):
    strategy = RandomStrategy(budget=BUDGET, seed=3)
    return explore(ctx.model, space, strategy)


def test_dse_serial(benchmark, ctx, space):
    report = benchmark.pedantic(_run, args=(ctx, space), rounds=1, iterations=1)
    assert report.ok and len(report.scores) == BUDGET


# -- batched evaluation: one program x 64 configs ----------------------------


def _cache_geometry_space():
    """64 cache/clock variants of the base core over one fixed program.

    Every knob is timing/energy-plane only, so all candidates share one
    semantic partition and the serial evaluator folds them into a single
    ``run_batch`` pass.
    """
    base = build_processor("xt-batch-dse", [])
    cases = {c.name: c for c in characterization_suite(include_variants=False)}
    _, program = cases["tp01_alu_mix"].build()

    def build(assignment):
        config = dataclasses.replace(
            base,
            name=(
                f"{base.name}-i{assignment['icache_line']}"
                f"-d{assignment['dcache_line']}-p{assignment['dmiss_penalty']}"
            ),
            icache=dataclasses.replace(
                base.icache, line_bytes=assignment["icache_line"]
            ),
            dcache=dataclasses.replace(
                base.dcache,
                line_bytes=assignment["dcache_line"],
                miss_penalty=assignment["dmiss_penalty"],
            ),
        )
        return config, program

    return SearchSpace(
        name="cache_geometry_64",
        description="cache line/penalty sweep over one program",
        knobs=(
            Knob("icache_line", (16, 32, 64, 128)),
            Knob("dcache_line", (16, 32, 64, 128)),
            Knob("dmiss_penalty", (8, 12, 16, 20)),
        ),
        builder=build,
    )


def test_dse_batched_partition(benchmark, ctx, save_report):
    space = _cache_geometry_space()
    candidates = list(space.candidates())
    assert len(candidates) == BATCH_CONFIGS

    # per-point baseline: singleton evaluate() calls can never group
    solo_engine = EvaluationEngine(ctx.model, space)
    start = time.perf_counter()
    solo_scores = [
        score
        for candidate in candidates
        for score in solo_engine.evaluate([candidate])
    ]
    solo_elapsed = time.perf_counter() - start
    assert solo_engine.batch_groups == 0

    batch_engine = EvaluationEngine(ctx.model, space)
    start = time.perf_counter()
    batch_scores = benchmark.pedantic(
        batch_engine.evaluate, args=(candidates,), rounds=1, iterations=1
    )
    batch_elapsed = time.perf_counter() - start
    assert batch_engine.batch_groups == 1
    assert batch_engine.batch_members == BATCH_CONFIGS
    assert len(batch_scores) == BATCH_CONFIGS

    # batching must never change the answer
    for solo, batched in zip(solo_scores, batch_scores):
        assert solo.key == batched.key
        assert solo.energy == batched.energy
        assert solo.cycles == batched.cycles
        assert solo.area == batched.area

    gain = solo_elapsed / batch_elapsed
    lines = [
        f"1 program (tp01_alu_mix) x {BATCH_CONFIGS} cache-geometry configs",
        f"per-point: {BATCH_CONFIGS / solo_elapsed:.1f} cand/s "
        f"({solo_elapsed:.3f} s)",
        f"batched:   {BATCH_CONFIGS / batch_elapsed:.1f} cand/s "
        f"({batch_elapsed:.3f} s)",
        f"gain: {gain:.2f}x (one run_batch pass, "
        f"{batch_engine.batch_members} members)",
    ]
    save_report("dse_batched_partition", "\n".join(lines))
    assert gain > 1.0


# -- operating-point axis: DVFS-only candidates share one partition ----------


def _operating_point_space():
    """One fixed core/program pair swept over the DVFS axis alone.

    Operating points rescale the macro-model, not the simulation, so
    every candidate shares the same semantic partition and one
    ``run_batch`` pass covers the whole sweep.
    """
    base = build_processor("xt-batch-dvfs", [])
    cases = {c.name: c for c in characterization_suite(include_variants=False)}
    _, program = cases["tp01_alu_mix"].build()

    inner = SearchSpace(
        name="fixed_core",
        description="one fixed core/program pair",
        knobs=(Knob("core", ("base",)),),
        builder=lambda assignment: (base, program),
    )
    return with_operating_points(inner, OP_POINTS)


def test_dse_batched_operating_point_axis(benchmark, ctx, save_report):
    space = _operating_point_space()
    candidates = list(space.candidates())
    assert len(candidates) == len(OP_POINTS)

    solo_engine = EvaluationEngine(ctx.model, space)
    solo_scores = [
        score
        for candidate in candidates
        for score in solo_engine.evaluate([candidate])
    ]
    assert solo_engine.batch_groups == 0

    batch_engine = EvaluationEngine(ctx.model, space)
    start = time.perf_counter()
    batch_scores = benchmark.pedantic(
        batch_engine.evaluate, args=(candidates,), rounds=1, iterations=1
    )
    batch_elapsed = time.perf_counter() - start
    # op-only-differing candidates collapse into ONE simulation group
    assert batch_engine.batch_groups == 1
    assert batch_engine.batch_members == len(OP_POINTS)
    assert len(batch_scores) == len(OP_POINTS)

    # the operating point must never perturb the simulation...
    assert len({score.cycles for score in batch_scores}) == 1
    # ...only the energy scale, exactly as the calibration dictates
    calibration = default_calibration()
    rescaled = {
        round(score.energy / calibration.energy_scale(point), 6)
        for score, point in zip(batch_scores, OP_POINTS)
    }
    assert len(rescaled) == 1

    for solo, batched in zip(solo_scores, batch_scores):
        assert solo.key == batched.key
        assert solo.energy == batched.energy
        assert solo.cycles == batched.cycles

    # each point gets its own request key, so the serve memo keeps them apart
    config, program = space.build(candidates[0].assignment_dict)
    keys = {
        candidate_cache_key(
            ctx.model.at(point).digest(),
            config,
            program,
            DEFAULT_MAX_INSTRUCTIONS,
        )
        for point in OP_POINTS
    }
    assert len(keys) == len(OP_POINTS)

    lines = [
        f"1 core/program pair x {len(OP_POINTS)} operating points",
        f"batched: {len(OP_POINTS) / batch_elapsed:.1f} cand/s "
        f"({batch_elapsed:.3f} s, {batch_engine.batch_groups} group, "
        f"{batch_engine.batch_members} members)",
        "energies: "
        + ", ".join(
            f"{point}={score.energy:.0f}"
            for score, point in zip(batch_scores, OP_POINTS)
        ),
    ]
    save_report("dse_batched_operating_point_axis", "\n".join(lines))


# -- cold explorations: breakdown and derivation counts ----------------------

EXPLORE_SPACE = "reed_solomon_tuned"
EXPLORE_POINTS = OP_POINTS[:3]
EXPLORE_BUDGET = 48
#: strategy seeds; each seed is one cold exploration
EXPLORE_SEEDS = range(24)

#: cached ``ProcessorConfig`` values no cache setting enters, counted per
#: derivation; ``--check`` wants one derivation per distinct impl
DERIVED = ("lowering_key", "semantic_fingerprint")

#: timed layers as (owner, attribute, name): the impl-level work, then
#: the candidate-level calls that contain it
_LAYERS = (
    (repro.dse.space, "_build_impl", "impl_build"),
    (repro.xtcore.compiled, "compile_program", "impl_compile"),
    (repro.xtcore.batch, "_record_trajectory", "impl_simulate"),
    (SearchSpace, "build", "build"),
    (EnergyMacroModel, "estimate_many", "estimate"),
    (repro.dse.evaluate, "_score_points", "score_points"),
    (repro.dse.evaluate, "generate_netlist", "netlist"),
)


class _Probe:
    """Seconds and calls per layer, and derivations per cached value."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self._depth: Counter = Counter()

    def _timed(self, name: str, function):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            if self._depth[name]:  # a space builder re-entering build
                return function(*args, **kwargs)
            self._depth[name] += 1
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - started
                self.calls[name] += 1
                self._depth[name] -= 1

        return timed

    def _derived(self, attribute: str, derive):
        prop = functools.cached_property(derive)
        prop.__set_name__(ProcessorConfig, attribute)
        return mock.patch.object(ProcessorConfig, attribute, prop)

    def _counted(self, name: str):
        derive = ProcessorConfig.__dict__[name].func

        def counted(config):
            self.calls[name] += 1
            return derive(config)

        return self._derived(name, counted)

    def patches(self) -> list:
        patches = [
            mock.patch.object(owner, attribute, self._timed(name, getattr(owner, attribute)))
            for owner, attribute, name in _LAYERS
        ]
        patches += [self._counted(name) for name in DERIVED]
        # what a template derives once for its geometry variants
        shared = ProcessorConfig.__dict__["_cache_independent"].func
        patches.append(self._derived("_cache_independent", self._timed("impl_derive", shared)))
        return patches


def measure_explore(model, seed: int) -> dict:
    """One cold exploration: wall time, layer times and counts."""
    space = with_operating_points(get_space(EXPLORE_SPACE), EXPLORE_POINTS)
    probe = _Probe()
    patches = probe.patches()
    for patch in patches:
        patch.start()
    try:
        compilation_cache().clear()
        started = time.perf_counter()
        report = explore(model, space, RandomStrategy(EXPLORE_BUDGET, seed=seed))
        wall = time.perf_counter() - started
    finally:
        for patch in reversed(patches):
            patch.stop()
    tier = compilation_cache().info()["tiers"]["build"]
    candidates = len(report.scores) + len(report.failures)
    return {
        "seed": seed,
        "impls": tier["misses"],
        "candidates": candidates,
        "failures": len(report.failures),
        "wall_ms": wall * 1e3,
        "seconds": dict(probe.seconds),
        "counts": {name: probe.calls[name] for name in (*DERIVED, "netlist")},
    }


def run_suite(model, seeds=EXPLORE_SEEDS) -> dict:
    """Cold explorations over ``seeds``: per-layer medians and every count.

    One untimed exploration first pays the process's one-time set-up
    (lazy imports, the calibration table), which no cold exploration of
    a running process pays again.
    """
    measure_explore(model, seeds[0])
    runs = [measure_explore(model, seed) for seed in seeds]

    def layer(name: str) -> list[float]:
        return [run["seconds"].get(name, 0.0) for run in runs]

    # Impl-level work happens once per impl, inside the candidate-level
    # calls; each candidate-level layer is reported net of it.
    impl = {
        "build": [b + d for b, d in zip(layer("impl_build"), layer("impl_derive"))],
        "compile": layer("impl_compile"),
        "simulate": layer("impl_simulate"),
    }
    candidate = {
        "build": [b - i for b, i in zip(layer("build"), impl["build"])],
        "estimate": [
            e - c - s for e, c, s in zip(layer("estimate"), impl["compile"], impl["simulate"])
        ],
        "score": [
            t - b - e
            for t, b, e in zip(layer("score_points"), layer("build"), layer("estimate"))
        ],
    }
    strategy = [run["wall_ms"] / 1e3 - t for run, t in zip(runs, layer("score_points"))]

    def median(seconds: list[float], per: str, scale: float) -> float:
        return round(
            statistics.median(s / run[per] for s, run in zip(seconds, runs)) * scale, 3
        )

    return {
        "benchmark": "dse_cold_explore",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workload": {
            "space": EXPLORE_SPACE,
            "operating_points": list(EXPLORE_POINTS),
            "strategy": f"random(budget={EXPLORE_BUDGET})",
            "seeds": f"{runs[0]['seed']}..{runs[-1]['seed']}",
            "model": MODEL.relative_to(ROOT).as_posix(),
            "cold": "compilation cache cleared before every exploration",
        },
        "unit": "medians over the explorations; a per-impl or per-candidate "
        "time divides one exploration's layer time by its impls or candidates",
        "explore_ms": round(statistics.median(run["wall_ms"] for run in runs), 3),
        "per_impl_ms": {name: median(seconds, "impls", 1e3) for name, seconds in impl.items()},
        "per_candidate_us": {
            name: median(seconds, "candidates", 1e6) for name, seconds in candidate.items()
        },
        "strategy_and_report_ms": round(statistics.median(strategy) * 1e3, 3),
        "counts": [
            {
                "seed": run["seed"],
                "impls": run["impls"],
                "candidates": run["candidates"],
                "failures": run["failures"],
                **run["counts"],
            }
            for run in runs
        ],
    }


def check_failures(payload: dict) -> list[str]:
    """Every ``--check`` gate the payload misses, one line each."""
    failures = []
    for row in payload["counts"]:
        if row["failures"]:
            failures.append(f"seed {row['seed']}: {row['failures']} candidate(s) failed")
        for name in (*DERIVED, "netlist"):
            if row[name] != row["impls"]:
                failures.append(
                    f"seed {row['seed']}: {row[name]} {name} derivations for "
                    f"{row['impls']} distinct impls ({row['candidates']} candidates)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON payload (default: repo-root BENCH_DSE.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every exploration derives each cache-independent "
        "value and the area netlist once per distinct impl",
    )
    args = parser.parse_args(argv)

    payload = run_suite(EnergyMacroModel.load(MODEL))
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    impl, candidate = payload["per_impl_ms"], payload["per_candidate_us"]
    print(
        f"cold explore of {EXPLORE_SPACE} x {len(EXPLORE_POINTS)} points, "
        f"{len(payload['counts'])} seeds: median {payload['explore_ms']} ms"
    )
    print(
        f"per impl (ms): build {impl['build']}, compile {impl['compile']}, "
        f"simulate {impl['simulate']}"
    )
    print(
        f"per candidate (us): build {candidate['build']}, estimate {candidate['estimate']}, "
        f"score {candidate['score']}"
    )
    row = payload["counts"][0]
    print(
        f"seed {row['seed']}: {row['impls']} impls, {row['candidates']} candidates, "
        + ", ".join(f"{name} {row[name]}" for name in (*DERIVED, "netlist"))
    )
    print(f"-> {args.output}")

    if args.check:
        failures = check_failures(payload)
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("CHECK OK: one derivation of each cache-independent value per impl")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
