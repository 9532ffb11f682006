"""The client half of the chaos smoke: prove self-healing over the wire.

Drives a running ``repro serve`` instance that was booted with a seeded
chaos plan (scheduled worker crashes on a fork pool, plus the poisoned
program name ``ci_poison``) and asserts, via real HTTP answers and
``/metrics``, that:

* innocent requests all answer 200 even though the plan kills real
  worker processes under them (the supervisor respawns and retries);
* the poisoned program is isolated and quarantined: a typed
  ``stage="quarantine"`` 500, and repeats are rejected without dispatch;
* the pool restart and quarantine counters account for every fault;
* the service stays ``ok`` for everyone else.

    python scripts/ci/chaos_smoke_client.py PORT PLANNED_CRASHES
"""

from __future__ import annotations

import http.client
import json
import sys

PROGRAM_TEMPLATE = (
    "    .data\n"
    "out: .word 0\n"
    "    .text\n"
    "main:\n"
    "    movi a2, {loops}\n"
    "    movi a3, 0\n"
    "loop:\n"
    "    add a3, a3, a2\n"
    "    addi a2, a2, -1\n"
    "    bnez a2, loop\n"
    "    la a4, out\n"
    "    s32i a3, a4, 0\n"
    "    halt\n"
)

#: Singleton crash strikes before quarantine; must match the server's
#: ``--quarantine-after`` so the poison assertions below are exact.
QUARANTINE_AFTER = 3


def body(name: str, loops: int) -> dict:
    return {
        "program": {
            "source": PROGRAM_TEMPLATE.format(loops=loops),
            "name": name,
        },
        "max_instructions": 10_000,
    }


def request(port: int, method: str, path: str, payload: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        encoded = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if encoded else {}
        conn.request(method, path, encoded, headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def main(argv: list[str]) -> int:
    port = int(argv[1])
    planned_crashes = int(argv[2])

    status, health = request(port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok", (status, health)

    # innocents answer 200 while the plan kills real workers under them
    for index in range(6):
        status, answer = request(
            port, "POST", "/estimate", body(f"ci_good{index}", loops=10 + index)
        )
        assert status == 200, (index, status, answer)
        assert answer["energy"] > 0, answer

    # the poison crashes its worker on every dispatch until quarantined
    status, answer = request(port, "POST", "/estimate", body("ci_poison", loops=50))
    assert status == 500, (status, answer)
    assert answer["stage"] == "quarantine", answer

    # ...and stays quarantined: the repeat is rejected without dispatch
    status, answer = request(port, "POST", "/estimate", body("ci_poison", loops=50))
    assert status == 500 and answer["stage"] == "quarantine", (status, answer)

    # traffic keeps flowing around the quarantine
    status, answer = request(port, "POST", "/estimate", body("ci_after", loops=30))
    assert status == 200, (status, answer)

    status, metrics = request(port, "GET", "/metrics")
    assert status == 200, (status, metrics)
    counters = metrics["counters"]
    supervision = metrics["supervision"]
    expected_crashes = planned_crashes + QUARANTINE_AFTER
    assert counters["worker_crashes_total"] >= expected_crashes, counters
    assert counters["pool_restarts_total"] >= 1, counters
    assert supervision["pool"]["restarts"] >= 1, supervision["pool"]
    assert supervision["chaos"]["injected"].get("crash", 0) == planned_crashes, (
        supervision["chaos"]
    )
    quarantine = supervision["quarantine"]
    assert quarantine["held"] == 1, quarantine
    assert "ci_poison" in quarantine["keys"].values(), quarantine
    assert counters["quarantine_rejections_total"] >= 1, counters

    # crashes were isolated faults, not an outage
    status, health = request(port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok", (status, health)

    print(
        f"chaos smoke: {counters['worker_crashes_total']} worker crash(es) "
        f"survived, pool respawned {counters['pool_restarts_total']} time(s), "
        "'ci_poison' quarantined, service still ok"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
