"""Run one workload in a fresh process and print its measurements as JSON.

``run.py`` starts this script with a fixed hash seed and the checkout's
``src`` on the path.  It prints ``{"event": "ready"}`` once set-up is
done (the parent times set-up up to that line), then the calibration
factor that scales the set-up time and, unless ``--setup-only``, one
result object as its last line.

End-to-end run (``--trace 0``): the seeded ops run in chunks with a
calibration point between chunks; throughput is the median of the
scaled per-chunk rates and the latency percentiles are taken over every
scaled op latency.

Traced run (``--trace 1``): the first half of the ops runs untraced, then
again with spans around every layer; the per-layer metrics come from
the traced pass and ``trace.overhead_pct`` compares the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import calib
import spans
import workloads

#: name -> unit of every metric this script reports (BENCHMARK.json
#: lists the same names; setup_s is measured by run.py).
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "rtl.observer_ms": "ms",
    "xtcore.dispatch_instrumented_ms": "ms",
    "rtl.netlist_ms": "ms",
    "core.fit_ms": "ms",
    "paper.speedup_x": "x",
    "paper.model_error_pct": "%",
    "asm.assemble_ms": "ms",
    "tie.build_ms": "ms",
    "xtcore.compile_ms": "ms",
    "xtcore.lower_ms": "ms",
    "xtcore.dispatch_ms": "ms",
    "core.extract_ms": "ms",
    "xtcore.retired_mips": "MIPS",
    "dse.build_ms": "ms",
    "xtcore.batch_ms": "ms",
    "dse.area_ms": "ms",
    "dse.batched_frac": "ratio",
    "dse.sims_per_candidate": "count",
    "serve.hit_ms": "ms",
    "serve.miss_ms": "ms",
    "serve.server_p50_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.dedup_frac": "ratio",
    "serve.sims_per_request": "count",
    "serve.batch_mean": "count",
    "host.calib_per_s": "1/s",
    "host.raw_throughput_per_s": "1/s",
    "host.raw_latency_p50_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def measure(workload, ops: list, calibrator: calib.Calibrator, first_id: int = 0) -> list:
    """Run ``ops`` chunk by chunk.

    Returns ``(latencies, busy, scaled busy, scaled latencies)`` per chunk.
    """
    chunks = []
    workload.calibrator = calibrator
    for start in range(0, len(ops), workload.chunk):
        calibrator.begin_chunk()
        spent = calibrator.spent
        latencies, wall = workload.run_chunk(ops[start:start + workload.chunk], first_id + start)
        busy = wall - (calibrator.spent - spent)
        factor, op_factors = calibrator.end_chunk()
        if not workload.calibrated:
            factor, op_factors = 1.0, []
        scaled = [l * f for l, f in zip(latencies, op_factors)] if op_factors else [l * factor for l in latencies]
        # busy time outside ops (the paper fit) takes the chunk's factor
        scaled_busy = sum(scaled) + (busy - sum(latencies)) * factor
        chunks.append((latencies, busy, scaled_busy, scaled))
    workload.calibrator = None
    return chunks


def summarize(chunks: list) -> dict:
    """Scaled and raw throughput and latency of measured chunks."""
    scaled = [l for chunk in chunks for l in chunk[3]]
    raw = [l for chunk in chunks for l in chunk[0]]
    return {
        "throughput_per_s": statistics.median(len(lat) / busy for lat, _, busy, _ in chunks),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_p90_ms": 1e3 * statistics.quantiles(scaled, n=10)[8],
        "raw_throughput_per_s": statistics.median(len(lat) / busy for lat, busy, _, _ in chunks),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "busy_scaled_s": sum(chunk[2] for chunk in chunks),
    }


def layer_metrics(workload, tracer: spans.Tracer, untraced: dict, traced: dict, rates: list) -> dict:
    totals = spans.LayerTotals(tracer)
    candidates = getattr(workload, "candidates", 0)
    session_s = totals.self_seconds.get("xtcore.session", 0.0)
    values = {name: 0.0 for name in PER_LAYER}
    values.update({
        "rtl.observer_ms": totals.ms_per_op("rtl.observer"),
        "xtcore.dispatch_instrumented_ms": totals.ms_per_op("xtcore.session_observed"),
        "rtl.netlist_ms": totals.ms_per_op("rtl.netlist"),
        "core.fit_ms": totals.ms_per_call("core.fit"),
        "asm.assemble_ms": totals.ms_per_op("asm.assemble"),
        "tie.build_ms": totals.ms_per_op("tie.build"),
        "xtcore.compile_ms": totals.ms_per_op("xtcore.compile"),
        "xtcore.lower_ms": totals.ms_per_op("xtcore.lower"),
        "xtcore.dispatch_ms": totals.ms_per_op("xtcore.session"),
        "core.extract_ms": totals.ms_per_op("core.extract"),
        "xtcore.retired_mips": (
            totals.counts.get("xtcore.session", 0) / session_s / 1e6 if session_s else 0.0
        ),
        "xtcore.batch_ms": totals.ms_per_op("xtcore.batch"),
        "dse.area_ms": totals.ms_per_op("dse.area"),
        "host.calib_per_s": statistics.median(rates),
        "host.raw_throughput_per_s": untraced["raw_throughput_per_s"],
        "host.raw_latency_p50_ms": untraced["raw_latency_p50_ms"],
        "trace.overhead_pct": 100.0 * (traced["busy_scaled_s"] / untraced["busy_scaled_s"] - 1.0),
        "trace.coverage_pct": totals.coverage_pct,
    })
    if candidates:
        values["dse.build_ms"] = 1e3 * totals.self_seconds.get("dse.build", 0.0) / candidates
        values["dse.batched_frac"] = totals.counts.get("xtcore.batch", 0) / candidates
        values["dse.sims_per_candidate"] = (
            totals.calls.get("xtcore.session", 0) + totals.calls.get("xtcore.batch", 0)
        ) / candidates
    values.update(workload.layer_values())
    return values


def host_info(args) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "workload_seed": args.seed,
        "nominal_calib_per_s": calib.NOMINAL_RATE,
    }


def run(args) -> dict:
    workload = workloads.make(args.workload, args.scratch)
    try:
        workload.setup()
        print(json.dumps({"event": "ready"}), flush=True)
        # the host speed just after set-up scales the set-up time
        calibrator = calib.Calibrator()
        calibrator.begin_chunk()
        factor, _ = calibrator.end_chunk()
        print(json.dumps({"event": "calibrated", "factor": factor}), flush=True)
        if args.setup_only:
            return {}
        ops = workload.inputs(args.seed, workload.op_count(args.seconds))
        workload.warmup(args.seed)
        if not args.trace:
            chunks = measure(workload, ops, calibrator)
            summary = summarize(chunks)
            metrics = {name: summary[name] for name in END_TO_END if name in summary}
            metrics["peak_rss_mb"] = workload.peak_rss_mb()
            attempted = len(ops)
        else:
            half = ops[: max(1, len(ops) // workload.chunk // 2) * workload.chunk]
            chunks = measure(workload, half, calibrator)
            untraced = summarize(chunks)
            workload.start_second_pass(args.seed)
            tracer = spans.Tracer()
            tracer.install()
            workload.set_tracer(tracer)
            try:
                traced = summarize(measure(workload, half, calibrator, first_id=len(half)))
            finally:
                workload.set_tracer(None)
                tracer.uninstall()
            metrics = layer_metrics(workload, tracer, untraced, traced, calibrator.rates)
            os.makedirs(args.spans_dir, exist_ok=True)
            tracer.write(os.path.join(args.spans_dir, f"spans-{args.workload}-{args.seed}.json"))
            attempted = 2 * len(half)
        failed = workload.check()
    finally:
        workload.close()
    units = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": failed == 0 and not workload.notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "host": host_info(args),
        "noise_controls": {
            "ops": len(ops),
            "chunk_ops": workload.chunk,
            "warmup_ops": workload.warmup_ops,
            "calibration": "gc off; refuses extra threads and trace/profile hooks",
            "calibration_samples": len(calibrator.rates),
            "chunk_factors": [round(c[2] / c[1], 4) for c in chunks],
            "chunk_rates_raw": [round(len(c[0]) / c[1], 3) for c in chunks],
        },
        "missing_layers": tracer.missing if args.trace else [],
        "notes": workload.notes[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "estimate", "explore", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True, help="directory for server port files")
    parser.add_argument("--spans-dir", required=True, help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    result = run(args)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
