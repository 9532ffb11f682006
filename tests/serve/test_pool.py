"""The serve worker's batch path and its bounded workload memos."""

from __future__ import annotations

import time

import pytest

import repro.core.model as model_module
from repro.dse.cache import candidate_cache_key
from repro.serve import pool
from repro.serve.supervise import DEADLINE_KEY
from repro.testing.progen import generate_source
from repro.xtcore import compilation_cache

from .conftest import TINY_SOURCE

POINTS = (None, "130nm@1.5V@400MHz", "65nm@1.1V@800MHz")


def _item(source=TINY_SOURCE, name="tiny", point=None, **extra):
    item = {"name": name, "source": source, "extensions": [], "max_instructions": 10_000}
    if point is not None:
        item["operating_point"] = point
    return {**item, **extra}


@pytest.fixture
def worker(serve_model):
    pool._worker_init(serve_model)
    return serve_model


@pytest.fixture
def batch_passes(monkeypatch):
    """Counts run_batch passes made by the estimation kernel."""
    passes = []
    real = model_module.run_batch

    def counting(configs, program, **kwargs):
        passes.append(len(configs))
        return real(configs, program, **kwargs)

    monkeypatch.setattr(model_module, "run_batch", counting)
    return passes


def test_one_source_at_three_points_is_one_batch_pass(worker, batch_passes):
    outcome = pool.run_estimate_batch([_item(point=point) for point in POINTS])
    assert batch_passes == [len(POINTS)]
    assert outcome["tally"]["runs_finished"] == len(POINTS)
    config, program = pool.resolve_workload(_item())
    for point, payload in zip(POINTS, outcome["results"]):
        solo = worker.at(point).estimate(config, program, max_instructions=10_000)
        assert payload["ok"]
        assert (payload["energy"], payload["cycles"]) == (solo.energy, solo.cycles)


def test_mixed_batch_keeps_input_order(worker, batch_passes):
    items = [
        _item(name="pair-a"),
        {**_item(name="broken"), "extensions": ["no_such_extension"]},
        _item(name="late", **{DEADLINE_KEY: time.monotonic() - 1.0}),
        _item(name="pair-b", point=POINTS[1]),
    ]
    results = pool.run_estimate_batch(items)["results"]
    stages = [payload.get("stage", "ok") for payload in results]
    assert stages == ["ok", "build", "deadline", "ok"]
    assert results[1]["error_type"] == "ValueError"
    assert batch_passes == [2]


def test_workload_memos_are_bounded_and_content_keyed(worker, monkeypatch):
    builds = compilation_cache()
    builds.clear()
    monkeypatch.setattr(builds, "maxsize", 2)
    try:
        for seed in range(4):
            pool.resolve_workload(_item(source=generate_source(seed), name=f"g{seed}"))
        tier = builds.info()["tiers"]["build"]
        assert tier["entries"] <= 2
        assert tier["evictions"] > 0

        config, first = pool.resolve_workload(_item(name="first"))
        again, second = pool.resolve_workload(_item(name="second"))
        assert second is first  # one entry for one source, whatever its name
        digest = worker.digest()
        assert candidate_cache_key(digest, config, first, 10_000) == candidate_cache_key(
            digest, again, second, 10_000
        )
    finally:
        builds.clear()
