"""Streaming reference estimation vs. a materialized trace (substrate benchmark).

The streaming RTL path (``RtlEnergyEstimator.estimate_program`` via an
observer) needs **O(1) trace memory**: its peak allocation is
independent of the dynamic instruction count, because no
``list[TraceRecord]`` is retained.

The memory claim is demonstrated, not assumed: ``tracemalloc`` peaks of
the streaming estimate and of a trace-materializing run (a
``TraceObserver`` on ``run_session``) are recorded at two run lengths and
written to ``results/streaming_rtl.txt`` — the materialized peak grows
with the instruction count while the streaming peak stays flat.
"""

import tracemalloc

from repro.asm import assemble
from repro.obs import TraceObserver, run_session
from repro.rtl import RtlEnergyEstimator, generate_netlist
from repro.xtcore import build_processor

from bench_substrate_performance import _big_loop_source


def _workload(iterations):
    config = build_processor("stream-perf")
    program = assemble(
        _big_loop_source(iterations), f"stream-loop-{iterations}", isa=config.isa
    )
    return config, program


def _materialized_trace(config, program):
    tracer = TraceObserver()
    run_session(config, program, observers=(tracer,))
    return len(tracer.records)


def _streaming_total(estimator, program):
    report, _ = estimator.estimate_program(program)
    return report.total


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_perf_rtl_streaming(benchmark):
    config, program = _workload(2000)
    estimator = RtlEnergyEstimator(generate_netlist(config))
    total = benchmark(lambda: _streaming_total(estimator, program))
    assert total > 0


def test_streaming_peak_memory_is_flat(benchmark, results_dir):
    """Peak RSS of the streaming path must not scale with run length."""
    # movi immediates are signed 12-bit, so 2000 is the largest convenient
    # iteration count; 4x run length is enough to expose linear growth.
    short_iters, long_iters = 500, 2000
    rows = []
    peaks = {}
    for iterations in (short_iters, long_iters):
        config, program = _workload(iterations)
        estimator = RtlEnergyEstimator(generate_netlist(config))
        materialized = _peak_bytes(lambda: _materialized_trace(config, program))
        streaming = _peak_bytes(lambda: _streaming_total(estimator, program))
        peaks[iterations] = (materialized, streaming)
        rows.append(
            f"{iterations:>10} iterations: materialized peak {materialized:>12,} B, "
            f"streaming peak {streaming:>12,} B"
        )

    # The benchmark fixture wants a timed body; time the long streaming run.
    config, program = _workload(long_iters)
    estimator = RtlEnergyEstimator(generate_netlist(config))
    benchmark(lambda: _streaming_total(estimator, program))

    short_mat, short_stream = peaks[short_iters]
    long_mat, long_stream = peaks[long_iters]
    # Materialized peak grows ~linearly with the trace; streaming must not.
    assert long_mat > short_mat * 3
    assert long_stream < short_stream * 1.5
    # Streaming must beat materialized outright on the long run.
    assert long_stream < long_mat / 5

    text = "peak tracemalloc memory, reference RTL estimation\n" + "\n".join(rows)
    (results_dir / "streaming_rtl.txt").write_text(text + "\n")
    benchmark.extra_info["materialized_peak_growth"] = long_mat / short_mat
    benchmark.extra_info["streaming_peak_growth"] = long_stream / short_stream

