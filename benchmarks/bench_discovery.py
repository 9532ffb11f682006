"""Throughput and quality of the automatic instruction-discovery flow.

Measures, per workload (FIR, Reed-Solomon):

* **mining rate** — candidate subgraphs enumerated per second from the
  profiled dataflow report (call-site unrolling + block mining);
* **legalization rate** — candidates lifted to TIE specs and checked
  against the port/latency/area budgets per second;
* **evaluation rate** — survivors rewritten, differentially verified and
  scored with the macro-model per second;
* **simulations per candidate** — ISS runs the pipeline makes per proven
  candidate, the profile run (which also scores the baseline) excluded;
* **quality** — EDP of the best *discovered* extension against the best
  (and the corresponding) *hand-written* extension for the workload.

Run as a script to (re)generate ``BENCH_DISCOVER.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_discovery.py [--check]

``--check`` fails unless every workload proves each candidate with at
most one simulation and its best discovered extension is within
``QUALITY_TARGET`` of the corresponding hand-written one.
"""

import argparse
import json
import os
import pathlib
import platform
import time
from unittest import mock

import repro.core.model
import repro.discover.pipeline
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

#: best discovered EDP over the corresponding hand-written EDP, at most
QUALITY_TARGET = 1.20
#: simulations per proven candidate, at most
SIMS_PER_CANDIDATE_TARGET = 1

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

    # the full pipeline re-runs the cheap phases; evaluation (rewrite +
    # differential verification + macro-model scoring) is what it does
    # after its "legalized" progress message.  Every simulation goes
    # through run_session, called by the pipeline directly or by the
    # macro-model's estimate path.
    legalized_at = []

    def progress(message: str) -> None:
        if message.startswith("legalized"):
            legalized_at.append(time.perf_counter())

    with mock.patch.object(
        repro.discover.pipeline, "run_session", wraps=repro.discover.pipeline.run_session
    ) as direct, mock.patch.object(
        repro.core.model, "run_session", wraps=repro.core.model.run_session
    ) as via_model:
        report = discover_case(case, model, options, progress=progress, workload=workload)
        evaluate_s = time.perf_counter() - legalized_at[0]
    simulations = direct.call_count + via_model.call_count
    proven = len(report.evaluated) + len(report.failures)

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
        "simulations": simulations,
        # the profile run feeds the miner and scores the baseline
        "sims_per_candidate": round((simulations - 1) / max(proven, 1), 3),
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


def host_info() -> dict:
    """The host a BENCH file was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_suite(model, workloads=("fir", "reed_solomon")) -> dict:
    return {
        "benchmark": "instruction_discovery",
        "model": "characterized default context",
        "host": host_info(),
        "workloads": [measure_workload(w, model) for w in workloads],
    }


def check_failures(payload: dict) -> list[str]:
    """Every ``--check`` gate the payload misses, one line each."""
    failures = []
    for row in payload["workloads"]:
        if row["sims_per_candidate"] > SIMS_PER_CANDIDATE_TARGET:
            failures.append(
                f"{row['workload']}: {row['sims_per_candidate']} simulations per "
                f"candidate, above {SIMS_PER_CANDIDATE_TARGET}"
            )
        ratio = row["edp"]["vs_corresponding_handwritten"]
        if ratio is None or ratio > QUALITY_TARGET:
            failures.append(
                f"{row['workload']}: best discovered EDP is {ratio}x the "
                f"corresponding hand-written one, above {QUALITY_TARGET}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON payload (default: repo-root BENCH_DISCOVER.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless each candidate costs <= {SIMS_PER_CANDIDATE_TARGET} "
        f"simulation and the best discovered EDP is <= {QUALITY_TARGET}x the "
        "corresponding hand-written one",
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
            f"evaluated {row['evaluated']:>2} ({rates['evaluated']}/s, "
            f"{row['sims_per_candidate']} sim/candidate)  "
            f"best {edp['best_discovered_mnemonic']} = "
            f"{edp['vs_best_handwritten']}x best hand-written"
        )
    print(f"-> {args.output}")

    if args.check:
        failures = check_failures(payload)
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("CHECK OK: one simulation per candidate, discovered within target")
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
        assert edp["vs_corresponding_handwritten"] <= QUALITY_TARGET, row
    save_report("discovery_vs_handwritten", "\n".join(lines))


if __name__ == "__main__":
    raise SystemExit(main())
