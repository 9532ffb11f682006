"""Chaos tests: the service under injected worker crashes, hangs, poison.

Everything runs a real forked pool, so the chaos harness's ``crash``
directive is an ``os._exit`` in a worker child, which the frontend sees
as :class:`~repro.serve.supervise.WorkerCrashed`, and a hang is a child
the supervisor's timeout kills.  Larger seeded runs are
``benchmarks/bench_serve_chaos.py`` and ``scripts/ci/smoke_chaos.sh``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import RetryPolicy
from repro.serve import EstimationService, Job, WorkerCrashed
from repro.testing.faults import ServiceChaosPlan

from .conftest import PoolGate, fire, wait_until

pytestmark = pytest.mark.chaos


def inline_body(name: str, loops: int) -> dict:
    """A tiny unique program: ``loops`` varies the image, so distinct
    ``loops`` values get distinct content-addressed request keys (the
    name alone does not change the assembled image)."""
    source = f"""
    .data
out: .word 0
    .text
main:
    movi a2, {loops}
    movi a3, 0
loop:
    add a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    la a4, out
    s32i a3, a4, 0
    halt
"""
    return {"program": {"source": source, "name": name}}


class TestCrashRecovery:
    def test_every_request_answered_despite_crashes(self, make_server):
        # ordinals 0 and 1 both crash; quarantine_after is high so the
        # re-dispatched singleton is retried, not condemned
        server = make_server(
            chaos=ServiceChaosPlan(seed=3, crashes=2, horizon=2),
            quarantine_after=5,
        )
        statuses = []
        for i in range(6):
            status, body = server.estimate(inline_body(f"prog{i}", loops=5 + i))
            statuses.append(status)
            assert "energy" in body or "error" in body
        # exactly-once, all successful: crashes were retried transparently
        assert statuses == [200] * 6
        _, metrics = server.request("GET", "/metrics")
        counters = metrics["counters"]
        assert counters["worker_crashes_total"] == 2
        assert counters["pool_restarts_total"] == 2
        assert counters["chaos_injected_total"] == 2
        assert metrics["supervision"]["chaos"]["injected"] == {"crash": 2}
        # nothing ended up quarantined: successes exonerated the retried key
        assert metrics["supervision"]["quarantine"]["held"] == 0

    def test_prometheus_exposes_supervision_gauges(self, make_server):
        server = make_server(chaos=ServiceChaosPlan(seed=3, crashes=1, horizon=1))
        assert server.estimate(inline_body("p", loops=9))[0] == 200
        _, text = server.request("GET", "/metrics?format=prom")
        assert "repro_serve_pool_restarts 1" in text
        assert "repro_serve_worker_crashes_total 1" in text
        assert "repro_serve_quarantine_held 0" in text

    def test_scheduled_faults_spare_the_supervisors_retries(self, make_server):
        # both scheduled crashes fall on consecutive ordinals; were the
        # retry of the first victim counted, it would take the second
        # crash too and an innocent would be quarantined after 2 strikes
        server = make_server(
            chaos=ServiceChaosPlan(seed=3, crashes=2, horizon=2),
            quarantine_after=2,
        )
        for i in range(2):
            status, body = server.estimate(inline_body(f"victim{i}", loops=5 + i))
            assert status == 200, body
        _, metrics = server.request("GET", "/metrics")
        assert metrics["supervision"]["chaos"]["injected"] == {"crash": 2}
        assert metrics["counters"]["worker_crashes_total"] == 2
        assert metrics["supervision"]["quarantine"]["held"] == 0


class FakePool:
    """A two-worker pool stub whose batches finish when the test says so."""

    workers = 2
    prewarmed = 0

    def __init__(self) -> None:
        self.submitted: list[tuple[list[str], asyncio.Future]] = []

    async def estimate_batch(self, items):
        future = asyncio.get_running_loop().create_future()
        self.submitted.append(([item["name"] for item in items], future))
        return await future

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        pass


class TestExclusiveRecovery:
    def test_crashed_batch_reruns_alone_on_the_pool(self, serve_model):
        """A crash's retry waits for running batches and holds off new ones."""

        async def scenario():
            service = EstimationService(serve_model, workers=1)
            service.pool.shutdown()
            pool = service.pool = FakePool()
            loop = asyncio.get_running_loop()
            jobs = {
                name: Job(
                    key=name,
                    item={"name": name, "max_instructions": 100},
                    future=loop.create_future(),
                )
                for name in ("suspect", "running", "arriving")
            }

            async def settle(submissions: int) -> None:
                for _ in range(200):
                    await asyncio.sleep(0.005)
                    if len(pool.submitted) == submissions:
                        break
                await asyncio.sleep(0.02)
                assert [names for names, _ in pool.submitted][submissions:] == []

            def finish(index: int) -> None:
                pool.submitted[index][1].set_result({"results": [{"ok": True}]})

            tasks = [
                asyncio.create_task(service._run_batch([jobs["suspect"]])),
                asyncio.create_task(service._run_batch([jobs["running"]])),
            ]
            await settle(2)
            pool.submitted[0][1].set_exception(WorkerCrashed("boom"))
            # the suspect's retry waits for the batch still on the pool,
            # and a batch arriving meanwhile waits for the recovery
            await settle(2)
            tasks.append(asyncio.create_task(service._run_batch([jobs["arriving"]])))
            await settle(2)
            finish(1)
            await settle(3)
            assert pool.submitted[2][0] == ["suspect"]
            finish(2)
            await settle(4)
            assert pool.submitted[3][0] == ["arriving"]
            finish(3)
            await asyncio.gather(*tasks)
            return service, {name: job.future.result() for name, job in jobs.items()}

        service, results = asyncio.run(scenario())
        assert all(payload["ok"] for payload in results.values())
        assert service.metrics.counters["worker_crashes_total"] == 1
        # the retried suspect succeeded alone: its one strike is cleared
        assert service.quarantine.snapshot()["suspects"] == {}


class TestPoisonQuarantine:
    def test_bisect_isolates_poison_and_quarantines_it(self, make_server):
        server = make_server(
            chaos=ServiceChaosPlan(poison=("bad",)),
            quarantine_after=2,
            batch_max=8,
        )
        # a busy worker makes the four requests queue up and leave as one
        # batch, so the poison shares it with innocents and is bisected out
        gate = PoolGate(server.service)
        _, blocker = fire(server, [inline_body("blocker", loops=40)])
        wait_until(lambda: gate.sizes() == [1])
        names = ["bad", "good1", "good2", "good3"]
        responses, threads = fire(
            server, [inline_body(name, 3 + i) for i, name in enumerate(names)]
        )
        wait_until(lambda: server.service.queue.qsize() == len(names))
        gate.open()
        for t in blocker + threads:
            t.join(timeout=60)
        results = {names[index]: (status, body) for index, status, body in responses}
        assert gate.sizes()[:2] == [1, 4]

        assert set(results) == set(names)
        # the innocents that shared batches with the poison all succeeded
        for name in ("good1", "good2", "good3"):
            status, body = results[name]
            assert status == 200, body
        # the poison was isolated by bisection and quarantined
        status, body = results["bad"]
        assert status == 500
        assert body["stage"] == "quarantine"

        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["quarantined_total"] == 1
        quarantine = metrics["supervision"]["quarantine"]
        assert quarantine["held"] == 1
        assert "bad" in quarantine["keys"].values()

        # the key stays quarantined: repeats answer 500 without dispatch
        status, body = server.estimate(inline_body("bad", loops=3))
        assert status == 500
        assert body["stage"] == "quarantine"
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["quarantine_rejections_total"] >= 1

        # /healthz stays ok but names the quarantine in its reasons
        _, health = server.request("GET", "/healthz")
        assert health["status"] == "ok"
        assert any("quarantined" in reason for reason in health["reasons"])


    def test_poison_in_a_full_batch_is_quarantined_with_default_options(
        self, make_server
    ):
        # a full batch_max batch needs one crash per bisection level plus
        # quarantine_after singleton strikes — five pool crashes in a row,
        # all of which must end in quarantine, never in an answer
        server = make_server(chaos=ServiceChaosPlan(poison=("bad",)))
        service = server.service
        gate = PoolGate(service)
        _, blocker = fire(server, [inline_body("blocker", loops=40)])
        wait_until(lambda: gate.sizes() == [1])
        first, first_threads = fire(server, [inline_body("bad", loops=3)])
        wait_until(lambda: service.queue.qsize() == 1)
        names = [f"clean{i}" for i in range(service.batch_max - 1)]
        rest, rest_threads = fire(
            server, [inline_body(name, loops=10 + i) for i, name in enumerate(names)]
        )
        wait_until(lambda: service.queue.qsize() == service.batch_max)
        gate.open()
        for thread in blocker + first_threads + rest_threads:
            thread.join(timeout=60)
        assert gate.sizes()[:2] == [1, service.batch_max]

        (_, status, body), = first
        assert (status, body.get("stage")) == (500, "quarantine"), body
        assert sorted(status for _, status, _ in rest) == [200] * len(names)
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["worker_crashes_total"] == 5
        assert metrics["counters"]["quarantined_total"] == 1
        _, health = server.request("GET", "/healthz")
        assert health["status"] == "ok"

    def test_scheduled_fault_is_not_absorbed_by_poison(self, make_server):
        # the crash scheduled for the first dispatch would die with the
        # poison's own crash; it moves to the next batch and kills it
        server = make_server(
            chaos=ServiceChaosPlan(seed=0, crashes=1, horizon=1, poison=("bad",)),
            quarantine_after=2,
        )
        status, body = server.estimate(inline_body("bad", loops=3))
        assert (status, body["stage"]) == (500, "quarantine")
        status, body = server.estimate(inline_body("good", loops=4))
        assert status == 200, body
        _, metrics = server.request("GET", "/metrics")
        assert metrics["supervision"]["chaos"]["injected"] == {"crash": 1}
        # two isolated poison strikes + the scheduled crash, separately
        assert metrics["counters"]["worker_crashes_total"] == 3
        assert metrics["supervision"]["quarantine"]["held"] == 1


class TestWorkerHang:
    def test_hang_times_out_then_retry_succeeds(self, make_server):
        # the hung child is killed at the timeout, never waited out
        server = make_server(
            chaos=ServiceChaosPlan(seed=5, hangs=1, horizon=1, hang_seconds=30.0),
            request_timeout=0.2,
            retry=RetryPolicy(max_attempts=3),
        )
        status, body = server.estimate(inline_body("slowpoke", loops=6), timeout=10)
        assert status == 200, body
        _, metrics = server.request("GET", "/metrics")
        counters = metrics["counters"]
        assert counters["timeouts_total"] >= 1
        assert counters["retries_total"] >= 1
        assert counters["worker_hangs_total"] >= 1
        assert counters["pool_restarts_total"] >= 1
        assert metrics["supervision"]["chaos"]["injected"]["hang"] == 1

    def test_stop_with_a_call_in_flight_forks_no_child(self, make_server):
        server = make_server(
            chaos=ServiceChaosPlan(seed=5, hangs=1, horizon=1, hang_seconds=30.0),
            drain_grace=0.2,
        )
        service = server.service
        results, threads = fire(server, [inline_body("slowpoke", loops=6)])
        # the only child is busy with the hung call
        wait_until(lambda: len(service.pool.pids) == 1 and service.pool._idle.qsize() == 0)
        forks = []
        spawn = service.pool._spawn
        service.pool._spawn = lambda: forks.append(1) or spawn()
        server.close()
        for thread in threads:
            thread.join(timeout=30)
        assert results[0][1] == 503
        assert results[0][2]["stage"] == "shutdown"
        assert forks == []
        assert service.pool.pids == []
        assert service.metrics_payload()["counters"]["pool_restarts_total"] == 0


class TestConnectionReset:
    def test_torn_response_then_service_keeps_going(self, make_server):
        server = make_server(chaos=ServiceChaosPlan(seed=1, resets=1, horizon=1))
        # the first response is cut mid-write: the client sees a torn read
        with pytest.raises(Exception):
            server.request("GET", "/healthz")
        # the service itself is unharmed
        status, health = server.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        status, _ = server.estimate(inline_body("after_reset", loops=4))
        assert status == 200
        _, metrics = server.request("GET", "/metrics")
        assert metrics["supervision"]["chaos"]["injected"]["reset"] == 1
