"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import json
import pathlib
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "make_ops",
    [
        lambda seed: workloads.paper_ops(seed, 3),
        lambda seed: workloads.estimate_ops(seed, 1000),
        lambda seed: workloads.explore_ops(seed, 200),
        lambda seed: workloads.serve_ops(seed, 2000),
    ],
)
def test_same_seed_same_ops_other_seed_other_order(make_ops):
    assert make_ops(7) == make_ops(7)
    assert make_ops(7) != make_ops(8)


def test_request_class_shares_hold_across_seeds():
    def shares(seed):
        counts = collections.Counter(op[0] for op in workloads.serve_ops(seed, 5000))
        return {kind: counts[kind] / 5000 for kind in ("hit", "miss", "variant")}

    first, second = shares(1), shares(2)
    for kind, expected in (("hit", 0.7), ("miss", 0.2), ("variant", 0.1)):
        assert abs(first[kind] - expected) < 0.02
        assert abs(first[kind] - second[kind]) < 0.02


def test_estimate_rounds_cover_every_job_and_point():
    ops = workloads.estimate_ops(3, 2 * 66 * len(workloads.POINTS))
    half = len(ops) // 2
    assert sorted(ops[:half]) == sorted(ops[half:])
    assert len(set(ops[:half])) == half


def test_calibration_refuses_with_a_busy_thread():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    thread = threading.Thread(target=spin, name="busy")
    thread.start()
    try:
        with pytest.raises(calib.CalibrationRefused, match="busy"):
            calib.sample_rate(calib.make_table())
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert calib.sample_rate(calib.make_table()) > 0


def test_calibration_refuses_under_a_trace_hook():
    table = calib.make_table()
    sys.setprofile(lambda *args: None)
    try:
        with pytest.raises(calib.CalibrationRefused):
            calib.sample_rate(table)
    finally:
        sys.setprofile(None)


@pytest.fixture(scope="module")
def serve_gate(tmp_path_factory):
    """A serve workload with no server: just its inputs and its gate."""
    from repro.asm import assemble
    from repro.xtcore import build_processor

    workload = workloads.ServeWorkload(str(tmp_path_factory.mktemp("serve")))
    workloads.Workload.setup(workload)
    workload.inputs(5, 10)
    seed = next(iter(workload.sources))
    config = build_processor("bench")
    program = assemble(workload.sources[seed], "p", isa=config.isa)
    estimate = workload.model.at(workloads.POINTS[2]).estimate(config, program)
    return workload, seed, estimate


def test_serve_gate_accepts_the_library_energy(serve_gate):
    workload, seed, estimate = serve_gate
    workload.failed_ops, workload.notes = 0, []
    payload = {"energy": estimate.energy, "cycles": estimate.cycles}
    workload.records = [("miss", 0, 0.01, 200, payload, seed, 2)]
    assert workload.check() == 0


def test_serve_gate_fails_a_perturbed_energy(serve_gate):
    workload, seed, estimate = serve_gate
    workload.failed_ops, workload.notes = 0, []
    payload = {"energy": estimate.energy * (1 + 1e-15), "cycles": estimate.cycles}
    assert payload["energy"] != estimate.energy
    workload.records = [
        ("miss", 0, 0.01, 200, payload, seed, 2),
        ("hit", 1, 0.01, 500, None, seed, 2),
    ]
    assert workload.check() == 2


def test_paper_gate_fails_a_perturbed_energy():
    output = ("tp01", 1234.5, 99)
    expected = workloads.paper_record(output)
    assert workloads.paper_matches(output, expected)
    nudged = ("tp01", 1234.5 * (1 + 1e-15), 99)
    assert not workloads.paper_matches(nudged, expected)


def test_estimate_golden_covers_every_job_and_point():
    golden = workloads.load_golden()
    assert len(golden["estimate"]) == 66 * len(workloads.POINTS)
    assert len(golden["explore"]) == workloads.EXPLORE_SEEDS
    assert len(golden["paper"]) == 66


def test_missing_wrap_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (("repro.core.model", "no_such_function", "x"),)
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["repro.core.model.no_such_function"]
    finally:
        tracer.uninstall()
    from repro.core import model

    assert not hasattr(model.run_session, "__wrapped__")


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {"setup_s": "s", **worker.END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"paper", "estimate", "explore", "serve"}
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
