"""Chaos proof: the serving runtime self-heals under injected faults.

A closed-loop load generator drives a live fork-pool
:class:`EstimationServer` while a seeded :class:`ServiceChaosPlan`
injects worker crashes (``os._exit`` in the child), a worker hang
(killed by the supervisor's respawn, never waited out) and one poisoned
program that crashes every batch it rides in until the quarantine
isolates it.  The run then proves the self-healing invariants:

* every request is answered exactly once — 200 for the innocents,
  a typed ``stage="quarantine"`` 500 for the poison's duplicates;
* the plan's full fault schedule actually fired (crashes + hang);
* ``/metrics`` accounts for the respawns and the quarantined key;
* client-observed p95 stays bounded: the 30s hang costs one request
  timeout + respawn, not 30 seconds of anyone's latency.

Run as a script to (re)generate ``BENCH_SERVE_CHAOS.json`` at the repo
root:

    PYTHONPATH=src python benchmarks/bench_serve_chaos.py

or as a CI smoke check with a scaled-down workload on a one-worker
fork pool:

    PYTHONPATH=src python benchmarks/bench_serve_chaos.py \
        --uniques 6 --dupes 2 --clients 4 --workers 1 --crashes 2 \
        --hangs 0 --horizon 3 --check --output chaos-smoke.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import pathlib
import random
import threading
import time

from bench_serve import (
    MAX_POST_ATTEMPTS,
    PROGRAM_TEMPLATE,
    RETRYABLE_STATUSES,
    LiveServer,
    _get_metrics,
    _percentile,
    _post_estimate_once,
    host_info,
    make_model,
)

from repro.serve import EstimationService
from repro.testing.faults import ServiceChaosPlan

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_SERVE_CHAOS.json"
POISON_NAME = "poison_prog"
P95_CEILING_MS = 30_000.0  # a waited-out 30s hang would blow straight past this


def make_workload(uniques: int, dupes: int, loops: int, seed: int) -> list[dict]:
    """``uniques * dupes`` bodies; the first unique is the poisoned one."""
    bodies = []
    for index in range(uniques):
        source = PROGRAM_TEMPLATE.format(loops=loops, salt=index + 1)
        name = POISON_NAME if index == 0 else f"load{index}"
        body = {
            "program": {"source": source, "name": name},
            "max_instructions": max(100_000, loops * 10),
        }
        bodies.extend([body] * dupes)
    random.Random(seed).shuffle(bodies)
    return bodies


def _post_outcome(port: int, body: dict) -> tuple[int, dict]:
    """POST to a terminal outcome, retrying only transient congestion.

    Unlike the throughput bench, a non-200 terminal answer (the
    quarantine's 500) is a *result* here, not an error.
    """
    last: tuple[int, dict] = (0, {"error": "no response"})
    for attempt in range(1, MAX_POST_ATTEMPTS + 1):
        try:
            status, payload = _post_estimate_once(port, body)
        except (ConnectionError, http.client.HTTPException) as exc:
            last = (0, {"error": repr(exc)})
        else:
            last = (status, payload)
            if status not in RETRYABLE_STATUSES:
                return last
        if attempt < MAX_POST_ATTEMPTS:
            time.sleep(min(2.0, 0.05 * 2**attempt) * (0.5 + random.random()))
    return last


def drive(port: int, bodies: list[dict], clients: int) -> dict:
    """Closed loop under chaos: record one terminal outcome per request."""
    pending = list(enumerate(bodies))
    outcomes: list[tuple[dict, int, dict, float]] = []
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                if not pending:
                    return
                _, body = pending.pop()
            began = time.perf_counter()
            status, payload = _post_outcome(port, body)
            elapsed = time.perf_counter() - began
            with lock:
                outcomes.append((body, status, payload, elapsed))

    began = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began

    ok = quarantined = other = 0
    latencies = []
    unexpected: list[dict] = []
    for body, status, payload, elapsed in outcomes:
        latencies.append(elapsed)
        name = body["program"]["name"]
        if status == 200 and name != POISON_NAME:
            ok += 1
        elif status == 500 and payload.get("stage") == "quarantine":
            quarantined += 1
        else:
            other += 1
            unexpected.append({"name": name, "status": status, "payload": payload})
    latencies.sort()
    return {
        "requests": len(bodies),
        "answered": len(outcomes),
        "clients": clients,
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(len(bodies) / wall, 2),
        "p50_ms": round(_percentile(latencies, 50) * 1e3, 3),
        "p95_ms": round(_percentile(latencies, 95) * 1e3, 3),
        "ok": ok,
        "quarantined": quarantined,
        "unexpected": unexpected[:5],
        "unexpected_count": other,
    }


def run_chaos_loadtest(
    uniques: int = 50,
    dupes: int = 4,
    clients: int = 8,
    loops: int = 200,
    seed: int = 11,
    workers: int = 2,
    crashes: int = 3,
    hangs: int = 1,
    horizon: int = 12,
) -> dict:
    """One chaos run; every self-healing invariant lands in ``checks``."""
    plan = ServiceChaosPlan(
        seed=seed,
        crashes=crashes,
        hangs=hangs,
        horizon=horizon,
        hang_seconds=30.0,
        poison=(POISON_NAME,),
    )
    bodies = make_workload(uniques, dupes, loops, seed)
    server = LiveServer(
        EstimationService(
            make_model(),
            workers=workers,
            batch_max=4,
            request_timeout=3.0,
            quarantine_after=2,
            chaos=plan,
        )
    )
    try:
        load = drive(server.port, bodies, clients=clients)
        metrics = _get_metrics(server.port)
    finally:
        server.close()

    counters = metrics["counters"]
    supervision = metrics["supervision"]
    injected = supervision["chaos"]["injected"]
    checks = {
        # exactly-once: every request reached one terminal answer, and
        # the only failures are the poison's typed quarantine 500s
        "all_answered": load["answered"] == load["requests"],
        "no_unexpected_outcomes": load["unexpected_count"] == 0,
        "poison_answers_typed_500": load["quarantined"] == dupes,
        # the schedule really fired
        "planned_crashes_fired": injected.get("crash", 0) == crashes,
        "planned_hangs_fired": injected.get("hang", 0) == hangs,
        # the supervisor respawned through every fault: the plan's
        # crashes, the poison's >= 2 singleton strikes, the hung worker
        "crashes_detected": counters["worker_crashes_total"] >= crashes + 2,
        "hang_killed_not_waited": (
            hangs == 0 or counters["worker_hangs_total"] >= hangs
        ),
        # the pool replaces every child that dies or is abandoned, so the
        # floor is the faults that always take a child down: the
        # poison's two singleton strikes, at least one scheduled crash,
        # and every hang
        "pool_respawned": counters["pool_restarts_total"] >= 3 + hangs,
        "poison_quarantined": (
            supervision["quarantine"]["held"] == 1
            and POISON_NAME in supervision["quarantine"]["keys"].values()
        ),
        "p95_bounded": load["p95_ms"] < P95_CEILING_MS,
    }
    return {
        "benchmark": "serve_chaos_self_healing",
        "unit": "invariant checks under a seeded fault schedule (closed loop)",
        "host": host_info(),
        "workload": {
            "unique_programs": uniques,
            "duplicates_each": dupes,
            "total_requests": uniques * dupes,
            "loop_iterations": loops,
            "seed": seed,
            "pool": {"workers": workers},
        },
        "chaos_plan": {
            "seed": seed,
            "crashes": crashes,
            "hangs": hangs,
            "horizon": horizon,
            "hang_seconds": 30.0,
            "poison": [POISON_NAME],
        },
        "load": load,
        "supervision": supervision,
        "counters": {
            key: counters[key]
            for key in (
                "worker_crashes_total",
                "worker_hangs_total",
                "pool_restarts_total",
                "quarantined_total",
                "quarantine_rejections_total",
                "chaos_injected_total",
                "timeouts_total",
                "retries_total",
            )
        },
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--uniques", type=int, default=50, help="distinct programs")
    parser.add_argument("--dupes", type=int, default=4, help="requests per program")
    parser.add_argument("--clients", type=int, default=8, help="concurrent clients")
    parser.add_argument(
        "--loops", type=int, default=200, help="loop iterations per program (sim cost)"
    )
    parser.add_argument("--seed", type=int, default=11, help="chaos + shuffle seed")
    parser.add_argument(
        "--workers", type=int, default=2, help="forked pool processes (at least 1)"
    )
    parser.add_argument("--crashes", type=int, default=3, help="scheduled worker crashes")
    parser.add_argument("--hangs", type=int, default=1, help="scheduled worker hangs")
    parser.add_argument(
        "--horizon", type=int, default=12, help="batch ordinals the schedule spans"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON payload (default: repo-root BENCH_SERVE_CHAOS.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every self-healing invariant holds",
    )
    args = parser.parse_args(argv)

    payload = run_chaos_loadtest(
        uniques=args.uniques,
        dupes=args.dupes,
        clients=args.clients,
        loops=args.loops,
        seed=args.seed,
        workers=args.workers,
        crashes=args.crashes,
        hangs=args.hangs,
        horizon=args.horizon,
    )
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    load = payload["load"]
    print(
        f"answered {load['answered']}/{load['requests']}   "
        f"ok {load['ok']}   quarantined {load['quarantined']}   "
        f"p50 {load['p50_ms']:.1f} ms   p95 {load['p95_ms']:.1f} ms"
    )
    print(
        "faults: "
        + ", ".join(f"{k}={v}" for k, v in payload["supervision"]["chaos"]["injected"].items())
        + f"   restarts {payload['counters']['pool_restarts_total']}"
    )
    failed = [name for name, passed in payload["checks"].items() if not passed]
    for name, passed in payload["checks"].items():
        print(f"  [{'ok' if passed else 'FAIL'}] {name}")
    print(f"-> {args.output}")
    if args.check and failed:
        print(f"CHECK FAILED: {', '.join(failed)}")
        return 1
    if args.check:
        print("CHECK OK: the service self-healed through the full fault schedule")
    return 0


# -- pytest harness ----------------------------------------------------------

try:
    import pytest
except ImportError:  # running as a plain script on a bare interpreter
    pytest = None
else:
    pytestmark = pytest.mark.chaos


def test_self_healing_under_scaled_chaos(save_report):
    """Scaled-down chaos run on a one-worker fork pool (the full run is scripted)."""
    payload = run_chaos_loadtest(
        uniques=6,
        dupes=2,
        clients=4,
        loops=100,
        seed=5,
        workers=1,
        crashes=2,
        hangs=0,
        horizon=3,
    )
    save_report(
        "serve_chaos",
        (
            f"answered: {payload['load']['answered']}/{payload['load']['requests']} "
            f"(ok {payload['load']['ok']}, quarantined {payload['load']['quarantined']})\n"
            f"injected: {payload['supervision']['chaos']['injected']}\n"
            f"restarts: {payload['counters']['pool_restarts_total']}\n"
            f"checks: {payload['checks']}"
        ),
    )
    failed = [name for name, passed in payload["checks"].items() if not passed]
    assert not failed, f"self-healing invariants failed: {failed} — {payload['load']}"


if __name__ == "__main__":
    raise SystemExit(main())
