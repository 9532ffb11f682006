"""The paper's Sec. V-B speedup claim: macro-model vs RTL reference.

Benchmarks the two estimation paths on the same application so
pytest-benchmark reports them side by side, and writes the measured
per-application speedup table.  The macro path is one untraced run on
the superop block-dispatch loop plus variable extraction and the dot
product; the reference path is one run on the per-op instrumented loop
feeding the streaming RTL energy observer (no trace is kept).  The paper
reports three orders of magnitude against gate-level ModelSim +
WattWatcher; our reference is a block-level Python estimator, so the
measured ratio is smaller (about 10x on the perfbench ``paper`` workload,
see EXPERIMENTS.md section 5)."""

import pytest

from repro.analysis import run_speedup
from repro.rtl import RtlEnergyEstimator, generate_netlist


@pytest.fixture(scope="module")
def drawline_case(ctx):
    case = next(c for c in ctx.applications if c.name == "drawline")
    return case.build()


def test_speedup_macro_path(benchmark, ctx, drawline_case):
    """The fast path: untraced ISS + variable extraction + dot product."""
    config, program = drawline_case
    estimate = benchmark(ctx.model.estimate, config, program)
    assert estimate.energy > 0


def test_speedup_reference_path(benchmark, ctx, drawline_case):
    """The slow path: instrumented ISS + streaming RTL energy walk."""
    config, program = drawline_case
    estimator = RtlEnergyEstimator(generate_netlist(config))
    report, _ = benchmark(estimator.estimate_program, program)
    assert report.total > 0


def test_speedup_table(benchmark, ctx, save_report):
    result = benchmark.pedantic(run_speedup, args=(ctx,), rounds=1, iterations=1)
    save_report("speedup", result.report())
    assert result.mean_speedup > 1.5
    for row in result.study.rows:
        assert row.speedup > 1.0, f"{row.application}: no speedup"
