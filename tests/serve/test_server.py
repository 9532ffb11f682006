"""End-to-end service tests over real HTTP, plus service-level policy units.

The HTTP tests go through :class:`ServerHarness` (a live asyncio server on
an ephemeral port); the backpressure and timeout/retry tests drive the
service object directly so the failure timing is deterministic.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.serve import RetryPolicy
from repro.serve import EstimationService, Job, pool, run_server
from repro.serve.api import ApiError
from repro.xtcore import DEFAULT_MAX_INSTRUCTIONS, compilation_cache

from .conftest import TINY_SOURCE, PoolGate, fire, wait_until

INLINE_BODY = {
    "program": {"source": TINY_SOURCE, "name": "tiny"},
    "max_instructions": 10_000,
}


class TestEstimateEndpoint:
    def test_fresh_then_memo(self, make_server):
        server = make_server()
        status, first = server.estimate({"benchmark": "tp01_alu_mix"})
        assert status == 200
        assert first["dedup"] == "fresh"
        assert first["energy"] > 0
        assert first["cycles"] > 0
        assert first["edp"] == pytest.approx(first["energy"] * first["cycles"])
        status, second = server.estimate({"benchmark": "tp01_alu_mix"})
        assert status == 200
        assert second["dedup"] == "memo"
        assert second["energy"] == first["energy"]
        assert second["key"] == first["key"]

    def test_inline_program_with_variables(self, make_server, serve_model):
        server = make_server()
        status, body = server.estimate({**INLINE_BODY, "variables": True})
        assert status == 200
        assert body["dedup"] == "fresh"
        assert set(body["variables"]) == set(serve_model.template.keys())
        recomputed = sum(
            body["variables"][name] * coeff
            for name, coeff in zip(serve_model.template.keys(), serve_model.coefficients)
        )
        assert body["energy"] == pytest.approx(recomputed)

    def test_variables_omitted_by_default(self, make_server):
        server = make_server()
        status, body = server.estimate(INLINE_BODY)
        assert status == 200
        assert "variables" not in body

    def test_concurrent_duplicates_merge(self, make_server):
        """N identical requests cost one simulation: 1 fresh + N-1 merged."""
        server = make_server()
        # hold the first request's batch so the duplicates find it in flight
        gate = PoolGate(server.service)
        counters = server.service.metrics.counters
        results, threads = fire(server, [INLINE_BODY] * 4)
        wait_until(lambda: counters["coalesced_total"] == 3)
        gate.open()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 4
        assert all(status == 200 for _, status, _ in results)
        energies = {body["energy"] for _, _, body in results}
        assert len(energies) == 1
        dedups = sorted(body["dedup"] for _, _, body in results)
        assert dedups.count("fresh") == 1
        assert all(d in ("fresh", "coalesced", "memo") for d in dedups)
        assert dedups == ["coalesced", "coalesced", "coalesced", "fresh"]
        assert gate.sizes() == [1]
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["duplicates_merged"] == 3
        assert metrics["counters"]["estimate_requests"] == 4

    def test_dedupe_disabled_runs_every_request(self, make_server):
        server = make_server(dedupe=False)
        assert server.estimate(INLINE_BODY)[1]["dedup"] == "fresh"
        assert server.estimate(INLINE_BODY)[1]["dedup"] == "fresh"
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["duplicates_merged"] == 0
        assert metrics["counters"]["batched_requests"] == 2

    def test_unknown_benchmark_is_bad_request(self, make_server):
        server = make_server()
        status, body = server.estimate({"benchmark": "no_such_benchmark"})
        assert status == 400
        assert body["error"] == "bad_workload"

    def test_unknown_extension_is_bad_request(self, make_server):
        server = make_server()
        status, body = server.estimate({**INLINE_BODY, "extensions": ["warpdrive"]})
        assert status == 400
        assert body["error"] == "bad_workload"
        assert "unknown extension 'warpdrive'; available: " in body["message"]

    def test_broken_program_is_bad_request(self, make_server):
        server = make_server()
        status, body = server.estimate({"program": {"source": "main:\n    bogus_op\n"}})
        assert status == 400

    def test_malformed_json_is_bad_request(self, make_server):
        server = make_server()
        status, _ = server.request("POST", "/estimate", body=None)
        assert status == 400

    def test_batch_counters_advance(self, make_server):
        server = make_server()
        server.estimate({"benchmark": "tp01_alu_mix"})
        server.estimate(INLINE_BODY)
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["batches_dispatched"] >= 2
        assert metrics["counters"]["batched_requests"] >= 2
        assert metrics["simulation"]["runs_finished"] >= 2
        assert metrics["latency"]["estimate"]["count"] == 2


class TestIntrospection:
    def test_healthz(self, make_server):
        server = make_server(queue_limit=7)
        status, body = server.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["pool"] == {"workers": 1, "prewarmed": 0, "restarts": 0}
        assert body["queue"] == {"depth": 0, "limit": 7}
        assert body["recent_failures"] == []

    def test_metrics_json_and_prometheus(self, make_server):
        # the frontend lowers nothing, so the lookups counted below are
        # the forked worker's, shipped back in its batch tally
        compilation_cache().clear()
        server = make_server()
        server.estimate({"benchmark": "tp01_alu_mix"})
        status, body = server.request("GET", "/metrics")
        assert status == 200
        assert body["counters"]["responses_ok"] == 1
        assert body["caches"]["compilation"]["hits"] + body["caches"]["compilation"][
            "misses"
        ] >= 1
        status, text = server.request("GET", "/metrics?format=prom")
        assert status == 200
        assert isinstance(text, str)
        assert "repro_serve_requests_total" in text

    def test_unknown_path_404(self, make_server):
        status, body = make_server().request("GET", "/nope")
        assert status == 404
        assert body["error"] == "not_found"

    def test_wrong_method_405(self, make_server):
        server = make_server()
        assert server.request("POST", "/healthz", body={})[0] == 405
        assert server.request("GET", "/estimate")[0] == 405


class TestBackpressure:
    def test_full_queue_answers_429(self, serve_model):
        async def scenario():
            service = EstimationService(serve_model, workers=1, queue_limit=1)
            # never started: nothing drains the queue, so fill it by hand
            loop = asyncio.get_running_loop()
            service.queue.put_nowait(
                Job(
                    key="occupant",
                    item={"max_instructions": 100},
                    future=loop.create_future(),
                )
            )
            with pytest.raises(ApiError) as exc_info:
                await service._obtain("rejected", "g", {"max_instructions": 100})
            service.pool.shutdown()
            return service, exc_info.value

        service, error = asyncio.run(scenario())
        assert error.status == 429
        assert error.code == "overloaded"
        # the hint is computed from queue depth and observed drain rate;
        # a cold service (no drains observed yet) quotes the cold-start
        # fallback rather than a hard-coded constant
        from repro.serve.admission import COLD_START_RETRY_AFTER

        assert error.headers == {"Retry-After": str(COLD_START_RETRY_AFTER)}
        assert service.metrics.counters["rejected_total"] == 1
        # the rejected key must not linger as a phantom in-flight owner
        assert service.coalescer.inflight_count == 0


class StallingPool:
    """A pool stub whose batches never finish — forces the timeout path."""

    workers = 1
    prewarmed = 0
    restarts = 0

    def __init__(self) -> None:
        self.budgets: list[list[int]] = []

    async def estimate_batch(self, items):
        self.budgets.append([item["max_instructions"] for item in items])
        await asyncio.get_running_loop().create_future()  # never resolved

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        pass


class TestTimeoutRetry:
    def test_retries_with_lowered_budget_then_times_out(self, serve_model):
        async def scenario():
            service = EstimationService(
                serve_model,
                workers=1,
                request_timeout=0.05,
                retry=RetryPolicy(max_attempts=2),
            )
            service.pool.shutdown()
            stub = StallingPool()
            service.pool = stub
            job = Job(
                key="k",
                item={"benchmark": "tp01_alu_mix", "max_instructions": 1000},
                future=asyncio.get_running_loop().create_future(),
            )
            service.coalescer.open(job)
            await service._run_batch([job])
            return service, stub, job.future.result()

        service, stub, payload = asyncio.run(scenario())
        # attempt 2 reran the batch at the policy's halved budget
        assert stub.budgets == [[1000], [500]]
        assert payload["ok"] is False
        assert payload["stage"] == "timeout"
        assert service.metrics.counters["timeouts_total"] == 2
        assert service.metrics.counters["retries_total"] == 1
        assert service.metrics.counters["failures_total"] == 1
        assert service.coalescer.inflight_count == 0
        failure = service.failures[-1]
        assert failure.stage == "timeout"
        assert failure.attempts == 2

    def test_timeout_surfaces_as_504(self, make_server, serve_model):
        server = make_server()
        service = server.service
        real_pool = service.pool
        service.pool = StallingPool()
        service.request_timeout = 0.05
        service.retry = RetryPolicy(max_attempts=1)
        try:
            status, body = server.estimate(INLINE_BODY)
        finally:
            service.pool = real_pool
        assert status == 504
        assert body["stage"] == "timeout"


class TestExploreEndpoint:
    def test_random_exploration(self, make_server):
        server = make_server()
        status, report = server.request(
            "POST",
            "/explore",
            {"space": "fir_tuned", "strategy": "random", "budget": 2, "top_k": 2},
            timeout=300,
        )
        assert status == 200
        assert len(report["scores"]) == 2
        assert all(score["energy"] > 0 for score in report["scores"])
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["explore_requests"] == 1
        assert metrics["latency"]["explore"]["count"] == 1

    def test_unknown_space_is_bad_request(self, make_server):
        status, body = make_server().request(
            "POST", "/explore", {"space": "not_a_space"}
        )
        assert status == 400
        assert body["error_type"] == "SpaceError"


def inline_body(loops: int) -> dict:
    """A distinct inline program (and request key) per ``loops``."""
    source = TINY_SOURCE.replace("movi a2, 6", f"movi a2, {loops}")
    return {**INLINE_BODY, "program": {"source": source, "name": f"tiny{loops}"}}


#: The operating points perfbench's serve workload requests.
PERFBENCH_POINTS = (None, "130nm@1.5V@400MHz", "90nm@1.2V@600MHz", "65nm@1.1V@800MHz")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork unavailable")
class TestForkPool:
    def test_forked_workers_report_tallies(self, make_server):
        compilation_cache().clear()  # the worker fuses from fresh slots
        server = make_server(workers=1, prewarm=["tp01_alu_mix"])
        _, health = server.request("GET", "/healthz")
        assert health["pool"] == {"workers": 1, "prewarmed": 1, "restarts": 0}
        status, body = server.estimate({"benchmark": "tp01_alu_mix"})
        assert status == 200
        assert body["dedup"] == "fresh"
        # the worker-side observer snapshot crossed the process boundary
        _, metrics = server.request("GET", "/metrics")
        assert metrics["simulation"]["runs_finished"] >= 1
        assert metrics["simulation"]["instructions"] > 0
        # so did the regions the worker fused, which the frontend's own
        # compilation cache never sees
        assert metrics["simulation"]["regions_fused"] == 1
        assert metrics["simulation"]["fuse_seconds"] > 0

    def test_requests_start_no_thread_and_stop_leaves_no_child(self, make_server):
        server = make_server(workers=2)
        threads = set(threading.enumerate())
        for loops in range(3, 7):
            status, _ = server.estimate(inline_body(loops))
            assert status == 200
        # the event loop drives the children's pipes itself
        assert set(threading.enumerate()) == threads
        pids = server.service.pool.pids
        assert len(pids) == 2
        server.close()
        for pid in pids:
            # reaped: neither a live child of this process nor a zombie
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_child_killed_mid_batch_is_answered_once_with_the_library_estimate(
        self, make_server, serve_model, monkeypatch, tmp_path
    ):
        # the first batch any child runs stalls, so the test can SIGKILL
        # its child mid-batch; the replacement child runs it normally
        marker = tmp_path / "stalled"
        estimate_items = pool._estimate_items

        def stall_once(items, tally):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return estimate_items(items, tally)
            time.sleep(60)

        monkeypatch.setattr(pool, "_estimate_items", stall_once)
        server = make_server(workers=1)
        answers, threads = fire(server, [INLINE_BODY])
        wait_until(marker.exists)
        (victim,) = server.service.pool.pids
        os.kill(victim, signal.SIGKILL)
        threads[0].join(timeout=60)
        ((_, status, body),) = answers
        assert status == 200, body
        config, program = pool.resolve_workload(
            {"name": "tiny", "source": TINY_SOURCE, "extensions": []}
        )
        expected = serve_model.estimate(config, program, max_instructions=10_000)
        assert (body["energy"], body["cycles"]) == (expected.energy, expected.cycles)
        _, metrics = server.request("GET", "/metrics")
        counters = metrics["counters"]
        assert counters["worker_crashes_total"] == 1
        assert counters["pool_restarts_total"] == 1
        assert (counters["batches_dispatched"], counters["responses_ok"]) == (1, 1)
        assert victim not in server.service.pool.pids
        with pytest.raises(ChildProcessError):
            os.waitpid(victim, os.WNOHANG)

    def test_one_killed_child_is_replaced_while_the_other_keeps_serving(
        self, make_server
    ):
        server = make_server(workers=2)
        assert server.estimate(inline_body(3))[0] == 200
        victim, survivor = server.service.pool.pids
        os.kill(victim, signal.SIGKILL)
        # EOF on the idle child's pipe: reaped and replaced at once
        wait_until(
            lambda: victim not in (pids := server.service.pool.pids) and len(pids) == 2,
            timeout=2,
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(victim, os.WNOHANG)
        assert survivor in server.service.pool.pids
        for loops in range(4, 8):
            assert server.estimate(inline_body(loops))[0] == 200
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["worker_crashes_total"] == 0
        assert metrics["counters"]["pool_restarts_total"] == 1
        assert survivor in server.service.pool.pids

    @pytest.mark.parametrize("point", PERFBENCH_POINTS)
    def test_fork_payloads_equal_inline_payloads(self, make_server, serve_model, point):
        """Forked answers equal the in-process library estimate, bitwise."""
        server = make_server(workers=1)
        cases = pool.benchmark_cases()
        workloads = [
            ({"benchmark": name}, cases[name].build(), DEFAULT_MAX_INSTRUCTIONS)
            for name in ("tp01_alu_mix", "tp06_memcpy")
        ]
        inline = pool.resolve_workload({"name": "tiny", "source": TINY_SOURCE})
        workloads.append((INLINE_BODY, inline, INLINE_BODY["max_instructions"]))
        model = serve_model.at(point)
        for body, (config, program), budget in workloads:
            if point is not None:
                body = {**body, "operating_point": point}
            status, answer = server.estimate(body)
            assert status == 200, answer
            expected = model.estimate(config, program, max_instructions=budget)
            frequency = None if point is None else expected.operating_point.frequency_mhz
            assert (
                answer["energy"].hex(),
                answer["cycles"],
                answer.get("seconds"),
                answer.get("frequency_mhz"),
            ) == (expected.energy.hex(), expected.cycles, expected.seconds, frequency)

    def test_fork_ipc_block_counts_every_batch(self, make_server):
        server = make_server(workers=1)
        for loops in range(3, 6):
            assert server.estimate(inline_body(loops))[0] == 200
        _, metrics = server.request("GET", "/metrics")
        batches = metrics["counters"]["batches_dispatched"]
        assert batches == 3
        ipc = metrics["fork_ipc"]
        assert {part: window["count"] for part, window in ipc.items()} == {
            "round_trip": batches,
            "worker": batches,
            "ipc": batches,
        }
        assert ipc["worker"]["mean_ms"] > 0
        assert ipc["ipc"]["mean_ms"] >= 0 and ipc["ipc"]["p50_ms"] >= 0
        assert metrics["simulation"]["batch_seconds"] > 0
        _, text = server.request("GET", "/metrics?format=prom")
        assert 'repro_serve_fork_ipc_batches{part="ipc"} 3' in text


class TestCliWiring:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "model.json"])
        assert args.model == "model.json"
        assert args.port == 8731
        assert args.workers == 2
        assert args.queue_limit == 64
        assert args.batch_max == 8
        assert not args.no_dedupe
        assert args.func.__name__ == "_cmd_serve"

    def test_serve_parser_overrides(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "m.json",
                "--port",
                "0",
                "--workers",
                "3",
                "--no-dedupe",
                "--prewarm",
                "suite",
            ]
        )
        assert args.port == 0
        assert args.workers == 3
        assert args.no_dedupe
        assert args.prewarm == "suite"

    @pytest.mark.parametrize("flag", ["--breaker-failures", "--breaker-cooldown"])
    def test_breaker_flags_are_gone(self, flag):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "m.json", flag, "5"])
        assert excinfo.value.code == 2


class TestDeadlines:
    def test_expired_deadline_shed_with_504(self, make_server):
        # the only worker is held busy, so the 1 ms job waits in the queue
        # past its deadline and is shed at harvest without simulation
        server = make_server()
        service = server.service
        gate = PoolGate(service)
        busy, busy_threads = fire(server, [{"benchmark": "tp01_alu_mix"}])
        wait_until(lambda: gate.sizes() == [1])
        shed, shed_threads = fire(server, [{**INLINE_BODY, "deadline_ms": 1}])
        wait_until(lambda: service.queue.qsize() == 1)
        time.sleep(0.01)
        gate.open()
        for thread in busy_threads + shed_threads:
            thread.join(timeout=60)
        assert busy[0][1] == 200
        _, status, body = shed[0]
        assert status == 504
        assert body["stage"] == "deadline"
        assert body["error_type"] == "DeadlineExceeded"
        assert gate.sizes() == [1]  # the expired job never reached a worker
        _, metrics = server.request("GET", "/metrics")
        assert metrics["counters"]["deadline_shed_total"] == 1
        # sheds are load management, not failures
        assert metrics["counters"]["failures_total"] == 0

    def test_generous_deadline_serves_normally(self, make_server):
        server = make_server()
        status, body = server.estimate({**INLINE_BODY, "deadline_ms": 60_000})
        assert status == 200
        assert body["energy"] > 0


class TestGracefulDrain:
    def test_drain_completes_inflight_and_refuses_new(self, make_server):
        server = make_server()
        service = server.service
        # hold the batch hostage until the test opens the gate, making
        # "in-flight during drain" deterministic
        gate = PoolGate(service)

        results: dict[str, tuple] = {}

        def post() -> None:
            results["inflight"] = server.estimate(INLINE_BODY, timeout=60)

        client = threading.Thread(target=post)
        client.start()
        for _ in range(500):
            if service.coalescer.inflight_count:
                break
            time.sleep(0.01)
        assert service.coalescer.inflight_count == 1

        async def begin() -> None:
            service.begin_drain()

        server.run(begin())

        # introspection stays up and reports draining
        status, health = server.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "draining"
        assert any("shutdown" in reason for reason in health["reasons"])

        # new work is refused with a typed 503
        status, body = server.request("POST", "/estimate", {"benchmark": "tp01_alu_mix"})
        assert status == 503
        assert body["error"] == "draining"

        # the in-flight request still completes successfully
        gate.open()
        client.join(timeout=30)
        status, body = results["inflight"]
        assert status == 200
        assert body["energy"] > 0

        async def drained() -> bool:
            return await service.drain(grace=10)

        assert server.run(drained()) is True
        assert service.metrics.counters["drain_rejected_total"] == 1

    def test_stop_closes_idle_keep_alive_connections_and_answers_busy_ones(
        self, make_server
    ):
        server = make_server()
        gate = PoolGate(server.service)
        idle = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            # one finished keep-alive exchange leaves the connection idle
            idle.request("GET", "/healthz")
            response = idle.getresponse()
            response.read()
            assert not response.will_close
            busy, threads = fire(server, [INLINE_BODY])
            wait_until(lambda: gate.sizes() == [1])
            stopping = asyncio.run_coroutine_threadsafe(
                server.server.stop(), server._loop
            )
            # the idle connection is closed while the busy one still waits
            assert idle.sock.recv(1) == b""
            assert not stopping.done()
            gate.open()
            for thread in threads:
                thread.join(timeout=30)
            stopping.result(timeout=30)
        finally:
            idle.close()
        assert busy[0][1] == 200

    def test_sigterm_shutdown_waits_one_drain_grace(self, serve_model, tmp_path):
        grace = 0.5
        port_file = tmp_path / "port"

        async def scenario():
            service = EstimationService(serve_model, workers=1, drain_grace=grace)
            service.pool.shutdown()
            stub = service.pool = StallingPool()
            serving = asyncio.create_task(
                run_server(service, port=0, announce=lambda _: None, port_file=str(port_file))
            )
            while not port_file.exists():
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", int(port_file.read_text())
            )
            body = json.dumps(INLINE_BODY).encode()
            writer.write(
                b"POST /estimate HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            while not stub.budgets:  # the batch is stuck on the pool
                await asyncio.sleep(0.01)
            assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
            began = time.monotonic()
            signal.raise_signal(signal.SIGTERM)
            await asyncio.wait_for(serving, 10)
            elapsed = time.monotonic() - began
            # one grace period, where waiting twice would take >= 2 * grace
            assert grace <= elapsed < 2 * grace
            # the abandoned request is answered, then its connection closed
            answer = await asyncio.wait_for(reader.read(), 5)
            assert answer.startswith(b"HTTP/1.1 503")
            writer.close()

        asyncio.run(scenario())

    def test_forced_shutdown_answers_every_abandoned_request_503(
        self, serve_model, tmp_path
    ):
        port_file = tmp_path / "port"

        class StallingExplorePool(StallingPool):
            async def explore(self, item):
                self.explores = [item]
                await asyncio.get_running_loop().create_future()  # never resolved

        async def post(port, path, payload):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = json.dumps(payload).encode()
            writer.write(
                b"POST %s HTTP/1.1\r\nHost: test\r\n" % path.encode()
                + b"Content-Length: %d\r\n\r\n" % len(body)
                + body
            )
            return reader, writer

        async def answer(reader, writer):
            raw = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(body)

        async def scenario():
            service = EstimationService(serve_model, workers=1, drain_grace=0.2)
            service.pool.shutdown()
            stub = service.pool = StallingExplorePool()
            serving = asyncio.create_task(
                run_server(service, port=0, announce=lambda _: None, port_file=str(port_file))
            )
            while not port_file.exists():
                await asyncio.sleep(0.01)
            port = int(port_file.read_text())
            stalled = await post(port, "/estimate", INLINE_BODY)
            while not stub.budgets:  # the only worker slot is stuck
                await asyncio.sleep(0.01)
            queued = await post(port, "/estimate", {"benchmark": "tp01_alu_mix"})
            while not service.queue.qsize():
                await asyncio.sleep(0.01)
            exploring = await post(port, "/explore", {"space": "fir"})
            while not getattr(stub, "explores", None):
                await asyncio.sleep(0.01)
            signal.raise_signal(signal.SIGTERM)
            await asyncio.wait_for(serving, 10)
            answers = [await answer(*conn) for conn in (stalled, queued, exploring)]
            assert [status for status, _ in answers] == [503, 503, 503]
            for _, body in answers:
                assert body["stage"] == "shutdown"
                assert body["error_type"] == "ServiceShutdown"
            assert answers[0][1]["error"] == "estimation_failed"
            assert answers[2][1]["error"] == "exploration_failed"

        asyncio.run(scenario())
