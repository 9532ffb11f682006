"""The client half of the serve smoke: prove coalescing over the wire.

POSTs the same estimate request twice to a running ``repro serve``
instance, asserts both answers agree, then reads ``/metrics`` and
asserts the duplicate was merged (memo, coalesce, or disk — any tier
counts; all of them mean the second request paid no simulation).

    python scripts/ci/serve_smoke_client.py PORT
"""

from __future__ import annotations

import http.client
import json
import sys

BODY = {
    "program": {
        "source": (
            "    .data\n"
            "out: .word 0\n"
            "    .text\n"
            "main:\n"
            "    movi a2, 25\n"
            "    movi a3, 0\n"
            "loop:\n"
            "    add a3, a3, a2\n"
            "    addi a2, a2, -1\n"
            "    bnez a2, loop\n"
            "    la a4, out\n"
            "    s32i a3, a4, 0\n"
            "    halt\n"
        ),
        "name": "ci_smoke",
    },
    "max_instructions": 10_000,
}


def request(port: int, method: str, path: str, body: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def main(argv: list[str]) -> int:
    port = int(argv[1])

    status, health = request(port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok", (status, health)

    status, first = request(port, "POST", "/estimate", BODY)
    assert status == 200, (status, first)
    status, second = request(port, "POST", "/estimate", BODY)
    assert status == 200, (status, second)
    assert second["key"] == first["key"], (first, second)
    assert second["energy"] == first["energy"], (first, second)
    assert first["dedup"] == "fresh", first
    assert second["dedup"] in ("memo", "coalesced"), second

    status, metrics = request(port, "GET", "/metrics")
    assert status == 200, (status, metrics)
    counters = metrics["counters"]
    assert counters["estimate_requests"] == 2, counters
    assert counters["duplicates_merged"] >= 1, counters
    assert metrics["simulation"]["runs_finished"] == 1, metrics["simulation"]

    print(
        "serve smoke: energy "
        f"{first['energy']:.1f}, second request answered via "
        f"{second['dedup']!r}, {counters['duplicates_merged']} duplicate(s) "
        "merged, 1 simulation total"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
