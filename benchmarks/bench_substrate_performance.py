"""Substrate performance benchmarks (not paper artifacts).

Tracks the throughput of the pieces every experiment is built on, so
performance regressions in the simulator/assembler/estimator shows up in
benchmark history:

* assembler lines/sec,
* ISS instructions/sec with and without a ``TraceObserver``,
* reference estimation (a run streamed through the RTL observer),
* resource-usage analysis + variable extraction per call.
"""

import pytest

from repro.asm import assemble
from repro.core import analyze_resource_usage, default_template, extract_variables
from repro.obs import TraceObserver, run_session
from repro.rtl import RtlEnergyEstimator, generate_netlist
from repro.xtcore import Simulator, build_processor


def _big_loop_source(iterations=2000):
    return f"""
    .data
arr: .space 4096
out: .word 0
    .text
main:
    movi a2, {iterations}
    la a8, arr
    movi a6, 0
loop:
    l32i a3, a8, 0
    add a6, a6, a3
    xor a4, a6, a2
    slli a5, a4, 3
    sub a6, a6, a5
    s32i a6, a8, 4
    addi a2, a2, -1
    bnez a2, loop
    la a7, out
    s32i a6, a7, 0
    halt
"""


@pytest.fixture(scope="module")
def workload():
    config = build_processor("perf")
    program = assemble(_big_loop_source(), "perf-loop", isa=config.isa)
    return config, program


def test_perf_assembler(benchmark):
    source = _big_loop_source()
    program = benchmark(assemble, source, "perf-loop")
    assert len(program) > 10


def test_perf_iss_untraced(benchmark, workload):
    config, program = workload
    result = benchmark(lambda: Simulator(config, program).run())
    benchmark.extra_info["instructions_per_sec"] = (
        result.instructions / benchmark.stats["mean"]
    )
    assert result.instructions > 10_000


def test_perf_iss_traced(benchmark, workload):
    config, program = workload
    tracer = TraceObserver()
    result = benchmark(lambda: run_session(config, program, observers=(tracer,)))
    assert len(tracer.records) == result.instructions


def test_perf_reference_estimator(benchmark, workload):
    config, program = workload
    estimator = RtlEnergyEstimator(generate_netlist(config))
    report, _ = benchmark(estimator.estimate_program, program)
    assert report.total > 0


def test_perf_variable_extraction(benchmark, workload):
    config, program = workload
    stats = Simulator(config, program).run().stats
    template = default_template()

    def extract():
        usage = analyze_resource_usage(stats, config)
        return extract_variables(stats, config, template, usage)

    vector = benchmark(extract)
    assert vector.shape == (21,)
