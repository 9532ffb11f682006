"""Operating points over the wire: request schema, dedup, metrics.

A point rescales the model's coefficients, never the simulation, so the
service keys its memo, coalescer and quarantine by the point-free
simulation key and prices each request at its own point.
"""

import pytest

from repro.serve.pool import resolve_workload
from repro.tech import default_calibration
from repro.testing.faults import ServiceChaosPlan

from .conftest import TINY_SOURCE, PoolGate, fire, wait_until

#: the operating points perfbench's ``serve`` traffic draws from
PERFBENCH_POINTS = (None, "130nm@1.5V@400MHz", "90nm@1.2V@600MHz", "65nm@1.1V@800MHz")


def _estimate_body(**extra):
    return {"program": {"name": "tiny", "source": TINY_SOURCE}, **extra}


def _at(body, point):
    return body if point is None else {**body, "operating_point": point}


class TestEstimateEndpoint:
    def test_point_scales_energy_and_adds_seconds(self, make_server):
        server = make_server()
        status, base = server.estimate(_estimate_body())
        assert status == 200
        status, scaled = server.estimate(
            _estimate_body(operating_point="65nm@1.1V@800MHz")
        )
        assert status == 200
        scale = default_calibration().energy_scale("65nm@1.1V@800MHz")
        assert scaled["energy"] == pytest.approx(base["energy"] * scale)
        # the simulation itself is untouched by the point
        assert scaled["cycles"] == base["cycles"]
        assert scaled["operating_point"] == "65nm@1.1V@800MHz"
        assert scaled["frequency_mhz"] == 800.0
        assert scaled["seconds"] == pytest.approx(base["cycles"] / 800e6)
        # the fit-point response keeps the legacy wire shape
        assert "operating_point" not in base

    def test_point_is_canonicalized(self, make_server):
        server = make_server()
        status, body = server.estimate(
            _estimate_body(operating_point="65 nm @ 1.1 V @ 800 MHz")
        )
        assert status == 200
        assert body["operating_point"] == "65nm@1.1V@800MHz"

    def test_bad_point_is_rejected(self, make_server):
        server = make_server()
        for bad in ("65nm", "65nm@9V@800MHz", "10nm@0.7V@2000MHz", 65):
            status, body = server.estimate(_estimate_body(operating_point=bad))
            assert status == 400
            assert body["error"] == "bad_request"

    def test_one_simulation_answers_every_point(self, make_server):
        server = make_server()
        dedups = []
        for point in PERFBENCH_POINTS:
            status, body = server.estimate(_at(_estimate_body(), point))
            assert status == 200, body
            dedups.append(body["dedup"])
        assert dedups == ["fresh", "memo", "memo", "memo"]
        status, metrics = server.request("GET", "/metrics")
        assert status == 200
        assert metrics["simulation"]["runs_finished"] == 1
        assert metrics["counters"]["batches_dispatched"] == 1

    def test_every_point_is_bitwise_the_library_estimate(self, make_server, serve_model):
        server = make_server()
        config, program = resolve_workload(
            {"name": "tiny", "source": TINY_SOURCE, "extensions": []}
        )
        # the first request simulates at a point, the rest price its memo
        for point in PERFBENCH_POINTS[::-1]:
            status, body = server.estimate(_at(_estimate_body(), point))
            assert status == 200, body
            expected = serve_model.at(point).estimate(config, program)
            assert body["energy"].hex() == expected.energy.hex()
            assert body["cycles"] == expected.cycles
            assert body.get("seconds") == expected.seconds
            assert body.get("frequency_mhz") == (
                expected.operating_point.frequency_mhz
                if expected.operating_point is not None
                else None
            )

    def test_variant_of_an_inflight_program_is_coalesced(self, make_server):
        server = make_server()
        gate = PoolGate(server.service)
        base, variant = PERFBENCH_POINTS[1], PERFBENCH_POINTS[3]
        results, threads = fire(server, [_at(_estimate_body(), base)])
        wait_until(lambda: gate.sizes() == [1])
        more, late = fire(server, [_at(_estimate_body(), variant)])
        wait_until(lambda: server.service.coalescer.coalesced == 1)
        gate.open()
        for thread in threads + late:
            thread.join(timeout=60)
        (_, status, first), (_, late_status, second) = results + more
        assert (status, late_status) == (200, 200)
        assert (first["dedup"], second["dedup"]) == ("fresh", "coalesced")
        assert (first["operating_point"], second["operating_point"]) == (base, variant)
        assert first["cycles"] == second["cycles"]
        assert gate.sizes() == [1]

    def test_quarantine_at_one_point_refuses_every_point(self, make_server):
        server = make_server(
            chaos=ServiceChaosPlan(seed=0, poison=("bad",)), quarantine_after=2
        )
        bad = {"program": {"name": "bad", "source": TINY_SOURCE}}
        status, body = server.estimate(_at(bad, PERFBENCH_POINTS[2]))
        assert (status, body["stage"]) == (500, "quarantine")
        _, metrics = server.request("GET", "/metrics")
        crashes = metrics["counters"]["worker_crashes_total"]
        # the same program under a name the plan does not poison: refused
        # by its point-free key, at every point, without a dispatch
        for point in PERFBENCH_POINTS:
            status, body = server.estimate(_at(_estimate_body(), point))
            assert (status, body["dedup"], body["stage"]) == (
                500,
                "quarantined",
                "quarantine",
            )
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["worker_crashes_total"] == crashes
        assert metrics["counters"]["quarantine_rejections_total"] == len(PERFBENCH_POINTS)
        assert metrics["supervision"]["quarantine"]["held"] == 1

    def test_metrics_count_per_point(self, make_server):
        server = make_server()
        server.estimate(_estimate_body())
        server.estimate(_estimate_body(operating_point="65nm@1.1V@800MHz"))
        server.estimate(_estimate_body(operating_point="65 nm@1.1 V@800 MHz"))
        status, metrics = server.request("GET", "/metrics")
        assert status == 200
        points = metrics["operating_points"]
        assert points["fit-point"] == 1
        assert points["65nm@1.1V@800MHz"] == 2
        status, prom = server.request("GET", "/metrics?format=prom")
        assert status == 200
        assert 'operating_point_requests{point="65nm@1.1V@800MHz"} 2' in prom


class TestExploreEndpoint:
    def test_explore_at_point(self, make_server):
        server = make_server()
        body = {"space": "reed_solomon", "objective": "edp_seconds",
                "operating_point": "65nm@1.1V@800MHz"}
        status, base_body = server.request(
            "POST", "/explore", {"space": "reed_solomon"}
        )
        assert status == 200
        status, scaled_body = server.request("POST", "/explore", body)
        assert status == 200
        scale = default_calibration().energy_scale("65nm@1.1V@800MHz")
        base = {s["key"]: s for s in base_body["scores"]}
        for score in scaled_body["scores"]:
            assert score["operating_point"] == "65nm@1.1V@800MHz"
            assert score["energy"] == pytest.approx(
                base[score["key"]]["energy"] * scale
            )
            assert score["cycles"] == base[score["key"]]["cycles"]

    def test_time_objective_needs_a_point(self, make_server):
        server = make_server()
        status, _ = server.request(
            "POST", "/explore", {"space": "reed_solomon", "objective": "time"}
        )
        assert status == 400
