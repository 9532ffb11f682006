"""Throughput and quality of the automatic instruction-discovery flow.

Measures, per workload (FIR, Reed-Solomon):

* **mining rate** — candidate subgraphs enumerated per second from the
  profiled dataflow report (call-site unrolling + block mining);
* **legalization rate** — candidates lifted to TIE specs and checked
  against the port/latency/area budgets per second;
* **evaluation rate** — survivors rewritten, differentially verified and
  scored with the macro-model per second;
* **quality** — EDP of the best *discovered* extension against the best
  (and the corresponding) *hand-written* extension for the workload.

Run as a script to (re)generate ``BENCH_DISCOVER.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_discovery.py
"""

import argparse
import json
import pathlib
import time

from repro.discover import (
    DiscoveryOptions,
    MinerOptions,
    discover_case,
    legalize_candidates,
    mine_call_sites,
    mine_report,
    software_case,
)
from repro.discover.trace import DataflowTraceObserver
from repro.obs import run_session

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_DISCOVER.json"

#: hand-written extension cases per workload, corresponding one first
HANDWRITTEN = {
    "fir": ("fir_mac", "fir_packed"),
    "reed_solomon": ("rs_gfmac", "rs_gfmul", "rs_dual"),
}


def _handwritten_cases(workload):
    if workload == "fir":
        from repro.programs.fir import fir_choices

        choices = fir_choices()
    else:
        from repro.programs.reed_solomon import reed_solomon_choices

        choices = reed_solomon_choices()
    wanted = HANDWRITTEN[workload]
    by_name = {case.name: case for case in choices}
    return [(name, by_name[name]) for name in wanted]


def measure_workload(workload: str, model, options=None) -> dict:
    """Time each discovery phase and score the result against hand-written."""
    options = options or DiscoveryOptions()
    case = software_case(workload)
    config, program = case.build()

    t0 = time.perf_counter()
    observer = DataflowTraceObserver()
    run_session(
        config, program, observers=[observer], max_instructions=case.max_instructions
    )
    profile_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    miner = MinerOptions(
        max_nodes=options.max_nodes,
        max_ports=options.max_ports,
        min_coverage=options.min_coverage,
    )
    candidates = mine_call_sites(observer.report, max_ports=options.max_ports)
    candidates += mine_report(observer.report, miner)
    mine_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    legal, rejected = legalize_candidates(candidates, options.legalize)
    legalize_s = time.perf_counter() - t0

    # the full pipeline re-runs the cheap phases; the dominant cost it adds
    # is rewrite + differential verification + macro-model estimation
    t0 = time.perf_counter()
    report = discover_case(case, model, options, workload=workload)
    evaluate_s = max(1e-9, (time.perf_counter() - t0) - profile_s - mine_s - legalize_s)

    handwritten = {}
    for name, hand_case in _handwritten_cases(workload):
        hand_config, hand_program = hand_case.build()
        estimate = model.estimate(hand_config, hand_program)
        handwritten[name] = float(estimate.energy) * int(estimate.cycles)

    best = report.best
    best_hand = min(handwritten.values())
    corresponding = handwritten[HANDWRITTEN[workload][0]]
    return {
        "workload": workload,
        "mined": len(candidates),
        "legalized": len(legal),
        "rejected": len(rejected),
        "evaluated": len(report.evaluated),
        "rates_per_s": {
            "mined": round(len(candidates) / max(mine_s, 1e-9), 1),
            "legalized": round(len(legal) / max(legalize_s, 1e-9), 1),
            "evaluated": round(len(report.evaluated) / evaluate_s, 2),
        },
        "seconds": {
            "profile": round(profile_s, 3),
            "mine": round(mine_s, 3),
            "legalize": round(legalize_s, 3),
            "evaluate": round(evaluate_s, 3),
        },
        "edp": {
            "baseline": report.baseline_edp,
            "best_discovered": best.edp if best else None,
            "best_discovered_mnemonic": best.mnemonic if best else None,
            "handwritten": handwritten,
            "vs_best_handwritten": (
                round(best.edp / best_hand, 3) if best else None
            ),
            "vs_corresponding_handwritten": (
                round(best.edp / corresponding, 3) if best else None
            ),
        },
    }


def run_suite(model, workloads=("fir", "reed_solomon")) -> dict:
    return {
        "benchmark": "instruction_discovery",
        "model": "characterized default context",
        "workloads": [measure_workload(w, model) for w in workloads],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON payload (default: repo-root BENCH_DISCOVER.json)",
    )
    args = parser.parse_args(argv)

    from repro.analysis import default_context

    payload = run_suite(default_context().model)
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for row in payload["workloads"]:
        rates = row["rates_per_s"]
        edp = row["edp"]
        print(
            f"{row['workload']:<14} mined {row['mined']:>3} ({rates['mined']}/s)  "
            f"legalized {row['legalized']:>3} ({rates['legalized']}/s)  "
            f"evaluated {row['evaluated']:>2} ({rates['evaluated']}/s)  "
            f"best {edp['best_discovered_mnemonic']} = "
            f"{edp['vs_best_handwritten']}x best hand-written"
        )
    print(f"-> {args.output}")
    return 0


# -- pytest-benchmark harness ------------------------------------------------


def test_discovery_throughput(benchmark, ctx, save_report):
    payload = benchmark.pedantic(
        measure_workload, args=("fir", ctx.model), rounds=1, iterations=1
    )
    save_report("discovery_fir", json.dumps(payload, indent=2))
    assert payload["legalized"] >= 5
    assert payload["evaluated"] >= 1
    assert all(rate > 0 for rate in payload["rates_per_s"].values())


def test_discovered_matches_handwritten(benchmark, ctx, save_report):
    payload = benchmark.pedantic(run_suite, args=(ctx.model,), rounds=1, iterations=1)
    lines = []
    for row in payload["workloads"]:
        edp = row["edp"]
        lines.append(
            f"{row['workload']}: best discovered {edp['best_discovered_mnemonic']} "
            f"EDP {edp['best_discovered']:.4g} = "
            f"{edp['vs_corresponding_handwritten']}x corresponding hand-written"
        )
        # the headline acceptance: within 20% of (or better than) the
        # corresponding hand-written extension
        assert edp["vs_corresponding_handwritten"] <= 1.20, row
    save_report("discovery_vs_handwritten", "\n".join(lines))


if __name__ == "__main__":
    raise SystemExit(main())
