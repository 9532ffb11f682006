"""The serve worker's batch path and its bounded workload memos."""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

import repro.asm as asm
import repro.core.model as model_module
from repro.dse.cache import candidate_cache_key
from repro.serve import pool
from repro.serve.supervise import DEADLINE_KEY
from repro.testing.progen import generate_source
from repro.xtcore import compilation_cache

from .conftest import TINY_SOURCE


def _item(source=TINY_SOURCE, name="tiny", **extra):
    item = {"name": name, "source": source, "extensions": [], "max_instructions": 10_000}
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


def test_batch_tally_counts_the_regions_it_fused(worker):
    hot = TINY_SOURCE.replace("movi a2, 6", "movi a2, 100")
    compilation_cache().clear()
    cold = pool.run_estimate_batch([_item(source=hot, name="hot")])["tally"]
    assert cold["regions_fused"] == 1  # the loop; the straight code ran once
    assert cold["fuse_seconds"] > 0
    warm = pool.run_estimate_batch([_item(source=hot, name="hot")])["tally"]
    assert (warm["regions_fused"], warm["fuse_seconds"]) == (0, 0.0)


def test_mixed_batch_keeps_input_order(worker, batch_passes):
    items = [
        _item(name="pair-a"),
        {**_item(name="broken"), "extensions": ["no_such_extension"]},
        _item(name="late", **{DEADLINE_KEY: time.monotonic() - 1.0}),
        _item(name="pair-b"),
    ]
    results = pool.run_estimate_batch(items)["results"]
    stages = [payload.get("stage", "ok") for payload in results]
    assert stages == ["ok", "build", "deadline", "ok"]
    assert results[1]["error_type"] == "ValueError"
    assert batch_passes == [2]


def test_item_carrying_a_program_is_never_assembled(worker, monkeypatch):
    _, program = pool.resolve_workload(_item())
    expected = pool.run_estimate_batch([_item()])["results"]

    def no_assembly(*args, **kwargs):
        raise AssertionError("the worker assembled a program it was given")

    monkeypatch.setattr(asm, "assemble", no_assembly)
    compilation_cache().clear()
    item = {**_item(), "program": program}
    del item["source"]
    assert pool.run_estimate_batch([item])["results"] == expected


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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_signal_in_a_fresh_fork_child_does_not_reach_the_parent_loop():
    """A child signalled before it set up as a worker (say, by a SIGTERM
    sent to the whole process group just after a fork) must not drain
    the server: it may not echo into the parent's wakeup fd.  Importing
    :mod:`repro.serve.pool` arms the fork hooks that ensure it."""

    async def scenario() -> bool:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        try:
            pid = os.fork()
            if pid == 0:  # child: signal ourselves at once, then leave
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                finally:
                    os._exit(0)
            await asyncio.wait_for(loop.run_in_executor(None, os.waitpid, pid, 0), 10)
            await asyncio.sleep(0.2)  # let the loop read its self-pipe
            return stop.is_set()
        finally:
            loop.remove_signal_handler(signal.SIGTERM)

    assert asyncio.run(scenario()) is False
