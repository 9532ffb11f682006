"""Coalescer semantics and load-adaptive batch harvesting."""

from __future__ import annotations

import asyncio
import math
import time

import pytest

from repro.serve import RetryPolicy
from repro.serve import BatchQueue, Coalescer, Job
from repro.testing.faults import ServiceChaosPlan

from .conftest import PoolGate, fire, wait_until
from .test_chaos import inline_body
from .test_server import StallingPool


def job_without_future(key: str) -> Job:
    """Jobs for sync-only tests; the future is never awaited."""
    loop = asyncio.new_event_loop()
    try:
        return Job(key=key, item={"max_instructions": 1}, future=loop.create_future())
    finally:
        loop.close()


class TestCoalescer:
    def test_inflight_attach_counts_waiters(self):
        coalescer = Coalescer()
        job = job_without_future("k1")
        coalescer.open(job)
        assert coalescer.find_inflight("k1") is job
        assert coalescer.find_inflight("k1") is job
        assert job.waiters == 3  # owner + two attachments
        assert coalescer.coalesced == 2
        assert coalescer.find_inflight("other") is None

    def test_close_memoizes_and_clears_inflight(self):
        coalescer = Coalescer()
        job = job_without_future("k1")
        coalescer.open(job)
        coalescer.close("k1", {"ok": True, "energy": 1.0})
        assert coalescer.inflight_count == 0
        assert coalescer.find_memo("k1") == {"ok": True, "energy": 1.0}
        assert coalescer.memo_hits == 1

    def test_failed_close_does_not_memoize(self):
        coalescer = Coalescer()
        coalescer.open(job_without_future("k1"))
        coalescer.close("k1")  # failure path: no payload
        assert coalescer.find_memo("k1") is None
        assert coalescer.memo_hits == 0

    def test_memo_lru_eviction(self):
        coalescer = Coalescer(memo_size=2)
        for key in ("a", "b", "c"):
            coalescer.close(key, {"ok": True, "key": key})
        assert coalescer.memo_count == 2
        assert coalescer.find_memo("a") is None  # oldest evicted
        assert coalescer.find_memo("b") is not None
        # touching "b" makes "c" the eviction victim
        coalescer.close("d", {"ok": True})
        assert coalescer.find_memo("c") is None
        assert coalescer.find_memo("b") is not None

    def test_zero_memo_size_disables_memoization(self):
        coalescer = Coalescer(memo_size=0)
        coalescer.close("a", {"ok": True})
        assert coalescer.memo_count == 0
        assert coalescer.find_memo("a") is None

    def test_negative_memo_size_rejected(self):
        with pytest.raises(ValueError):
            Coalescer(memo_size=-1)


class TestBatchQueue:
    def test_rejects_silly_maxsize(self):
        with pytest.raises(ValueError):
            BatchQueue(0)

    def test_full_queue_raises(self):
        async def scenario():
            queue = BatchQueue(2)
            queue.put_nowait(job_without_future("a"))
            queue.put_nowait(job_without_future("b"))
            with pytest.raises(asyncio.QueueFull):
                queue.put_nowait(job_without_future("c"))
            assert queue.qsize() == 2

        asyncio.run(scenario())

    def test_harvests_queued_jobs_up_to_max(self):
        async def scenario():
            queue = BatchQueue(16)
            for key in "abcde":
                queue.put_nowait(job_without_future(key))
            batch = await queue.next_batch(max_batch=3)
            assert [job.key for job in batch] == ["a", "b", "c"]
            batch = await queue.next_batch(max_batch=8)
            assert [job.key for job in batch] == ["d", "e"]

        asyncio.run(scenario())

    def test_queued_lone_job_returns_without_suspending(self):
        async def scenario():
            queue = BatchQueue(4)
            queue.put_nowait(job_without_future("only"))
            harvest = queue.next_batch(max_batch=8)
            # one step runs the coroutine to completion: it never awaited
            # anything, so no timer (or other wakeup) was armed
            with pytest.raises(StopIteration) as done:
                harvest.send(None)
            assert [job.key for job in done.value.value] == ["only"]
            assert queue.qsize() == 0

        asyncio.run(scenario())

    def test_returns_without_waiting_for_stragglers(self):
        async def scenario():
            queue = BatchQueue(16)
            queue.put_nowait(job_without_future("first"))

            async def straggler():
                await asyncio.sleep(0.02)
                queue.put_nowait(job_without_future("late"))

            task = asyncio.create_task(straggler())
            batch = await queue.next_batch(max_batch=8)
            assert [job.key for job in batch] == ["first"]
            await task
            # the straggler leaves with the next harvest
            batch = await queue.next_batch(max_batch=8)
            assert [job.key for job in batch] == ["late"]

        asyncio.run(scenario())

    def test_blocks_until_first_job(self):
        async def scenario():
            queue = BatchQueue(4)

            async def producer():
                await asyncio.sleep(0.02)
                queue.put_nowait(job_without_future("only"))

            task = asyncio.create_task(producer())
            batch = await queue.next_batch(max_batch=4)
            await task
            assert [job.key for job in batch] == ["only"]

        asyncio.run(scenario())


def distinct_bodies(count: int, first_loops: int = 3) -> list[dict]:
    """Requests with distinct keys (one content-addressed job each)."""
    return [inline_body(f"p{i}", loops=first_loops + i) for i in range(count)]


def hold_worker(server, gate: PoolGate, name: str = "blocker"):
    """Occupy the service's one worker with a gated request."""
    _, threads = fire(server, [inline_body(name, loops=50)])
    wait_until(lambda: len(gate.sizes()) == 1)
    return threads


class TestLoadAdaptiveBatching:
    """A harvest happens when a worker slot is free and takes what is queued."""

    @pytest.mark.parametrize(
        "count, batch_max", [(1, 8), (5, 8), (8, 8), (7, 3), (9, 2)]
    )
    def test_arrivals_behind_a_busy_worker_leave_together(
        self, make_server, count, batch_max
    ):
        server = make_server(batch_max=batch_max)
        gate = PoolGate(server.service)
        blocker = hold_worker(server, gate)
        results, threads = fire(server, distinct_bodies(count))
        wait_until(lambda: server.service.queue.qsize() == count)
        gate.open()
        for thread in blocker + threads:
            thread.join(timeout=60)
        assert sorted(status for _, status, _ in results) == [200] * count
        sizes = gate.sizes()
        assert sizes[0] == 1
        # N <= batch_max queued jobs go out as one batch; more go out as
        # ceil(N / batch_max) batches of at most batch_max each
        assert len(sizes[1:]) == math.ceil(count / batch_max)
        assert sum(sizes[1:]) == count
        assert max(sizes[1:]) == min(count, batch_max)

    def test_mixed_processors_leave_as_one_batch(self, make_server):
        # the worker's estimation kernel groups by trajectory, so a harvest
        # that spans processor configs is still one pool round trip
        server = make_server()
        gate = PoolGate(server.service)
        blocker = hold_worker(server, gate)
        bodies = distinct_bodies(4)
        for body in bodies[::2]:
            body["extensions"] = ["mul16"]
        results, threads = fire(server, bodies)
        wait_until(lambda: server.service.queue.qsize() == 4)
        gate.open()
        for thread in blocker + threads:
            thread.join(timeout=60)
        assert sorted(status for _, status, _ in results) == [200] * 4
        assert gate.sizes() == [1, 4]
        extensions = {tuple(item["extensions"]) for item in gate.batches[1]}
        assert extensions == {(), ("mul16",)}

    def test_lone_request_on_idle_service_is_dispatched_at_once(self, make_server):
        server = make_server()
        gate = PoolGate(server.service)
        results, threads = fire(server, distinct_bodies(1))
        # dispatched while the gate is still shut: nothing waited for company
        wait_until(lambda: gate.sizes() == [1])
        assert server.service.queue.qsize() == 0
        gate.open()
        threads[0].join(timeout=60)
        assert results[0][1] == 200

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outstanding_batches_never_exceed_workers(self, make_server, workers):
        server = make_server(workers=workers, batch_max=2)
        slots = server.service.pool.workers
        gate = PoolGate(server.service)
        results, threads = fire(server, distinct_bodies(9))
        # every slot is taken and the rest of the traffic waits in the queue
        wait_until(
            lambda: len(gate.sizes()) == slots
            and server.service.queue.qsize() + sum(gate.sizes()) == 9
        )
        time.sleep(0.02)
        assert len(gate.sizes()) == slots
        gate.open()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(status for _, status, _ in results) == [200] * 9
        assert gate.max_outstanding == slots
        assert sum(gate.sizes()) == 9

    @pytest.mark.parametrize("scenario", ["timeout", "crash"])
    def test_failed_batch_releases_its_slot(self, make_server, scenario):
        options: dict = {}
        if scenario == "crash":
            options = {
                "chaos": ServiceChaosPlan(poison=("bad",)),
                "quarantine_after": 1,
            }
        server = make_server(**options)
        service = server.service
        assert service.pool.workers == 1  # one slot: a leaked one hangs the rest
        if scenario == "timeout":
            real_pool = service.pool
            service.pool = StallingPool()
            service.request_timeout = 0.05
            service.retry = RetryPolicy(max_attempts=1)
            status, body = server.estimate(inline_body("bad", loops=3), timeout=10)
            service.pool = real_pool
            assert (status, body["stage"]) == (504, "timeout")
        else:
            status, body = server.estimate(inline_body("bad", loops=3), timeout=10)
            assert (status, body["stage"]) == (500, "quarantine")
        for i in range(3):
            status, _ = server.estimate(inline_body(f"next{i}", loops=20 + i), timeout=10)
            assert status == 200
        assert service.queue.qsize() == 0


class TestQueueWait:
    def test_queue_wait_splits_waiting_from_worker_time(self, make_server):
        server = make_server()
        gate = PoolGate(server.service)
        blocker = hold_worker(server, gate)
        results, threads = fire(server, distinct_bodies(1))
        wait_until(lambda: server.service.queue.qsize() == 1)
        held = 0.1
        time.sleep(held)
        gate.open()
        for thread in blocker + threads:
            thread.join(timeout=60)
        assert results[0][1] == 200
        _, metrics = server.request("GET", "/metrics")
        wait = metrics["queue_wait"]
        assert wait["count"] == 2  # one sample per dispatched job
        # the blocker went straight to the idle worker; the second job
        # waited in the queue for as long as the worker was held
        assert wait["p50_ms"] < held * 1e3
        assert wait["p95_ms"] >= held * 1e3
        _, text = server.request("GET", "/metrics?format=prom")
        assert "repro_serve_queue_wait_jobs 2" in text
        assert "repro_serve_queue_wait_p95_ms " in text

