"""DSE engine throughput: serial vs batched.

The exploration engine's whole value is candidates/second on the
macro-model fast path.  This benchmark times one seeded random sample
of the tuned Reed-Solomon space, then the batched evaluator: one
program across 64 cache-geometry variants (a single semantic
partition), scored through one :func:`repro.xtcore.run_batch` pass
versus 64 per-point runs.
"""

import dataclasses
import time

import pytest

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
from repro.xtcore import DEFAULT_MAX_INSTRUCTIONS, build_processor

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
