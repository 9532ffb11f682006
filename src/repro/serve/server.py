"""The estimation service: routing, policy, lifecycle.

:class:`EstimationService` owns the whole request path —

    parse → resolve (config, program) → content-address → dedupe
    (memo / in-flight / shared disk cache) → bounded queue → windowed
    batch → forked worker pool → resolve coalesced waiters → memoize

— and exposes it over four endpoints:

========================  ===================================================
``POST /estimate``        macro-model energy of one program (coalesced+batched)
``POST /explore``         one DSE run over a bundled space (pool-dispatched)
``GET  /healthz``         liveness + queue/pool posture + breaker state
``GET  /metrics``         counters, p50/p95 latency, cache rates (JSON or prom)
========================  ===================================================

Backpressure is explicit: a full queue answers ``429`` with a
``Retry-After`` header instead of buffering unboundedly.  Per-batch
timeouts reuse the characterization :class:`~repro.core.runner.RetryPolicy`
— a timed-out batch is retried with the policy's lowered instruction
budget, and a batch that exhausts its attempts resolves every waiter
with a :class:`~repro.core.runner.SampleFailure`-shaped ``504``.

The service is **self-healing** (see :mod:`repro.serve.supervise`):

* a worker crash (``BrokenProcessPool``) respawns the pool — prewarmed
  lowerings are re-inherited copy-on-write — and re-dispatches the
  interrupted batch;
* a multi-request batch that keeps crashing is **bisected** until the
  poisoned request is isolated; after ``quarantine_after`` singleton
  crashes the key is quarantined and answered with a typed ``500``
  while the rest of the traffic keeps flowing;
* a timed-out fork-mode batch is treated as a *hung worker*: the pool
  is respawned (killing the wedged child) before the retry;
* repeated pool crashes trip a :class:`~repro.serve.supervise.CircuitBreaker`
  that degrades to inline single-threaded evaluation and flips
  ``/healthz`` to ``degraded`` until a cooldown probe succeeds;
* client ``deadline_ms`` propagates through the queue into the worker,
  shedding expired requests with ``504`` before they pay for simulation;
* SIGTERM drains: in-flight batches complete, new work is refused with
  ``503``, then the process exits 0.

:class:`EstimationServer` is the thin asyncio TCP transport around the
service; :func:`run_server` adds signal-driven graceful shutdown for the
``repro serve`` CLI.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from typing import Optional, Sequence

from ..core.model import EnergyMacroModel
from ..core.runner import RetryPolicy, SampleFailure
from ..dse.cache import ResultCache, candidate_cache_key
from .admission import DrainRateEstimator, retry_after_seconds
from .api import (
    ApiError,
    EstimateRequest,
    parse_estimate,
    parse_explore,
)
from .batching import BatchQueue, Coalescer, Job, partition_compatible
from .http import (
    HttpProtocolError,
    HttpRequest,
    json_response,
    read_request,
    text_response,
)
from .metrics import ServiceMetrics, render_prometheus
from .pool import WorkerPool, resolve_workload
from .supervise import (
    CHAOS_KEY,
    DEADLINE_KEY,
    CircuitBreaker,
    QuarantineRegistry,
    deadline_at,
    is_pool_crash,
)


class _PoolCrash(Exception):
    """Internal carrier: a dispatch died of pool death.

    Wraps the original ``BrokenProcessPool``/``InjectedWorkerCrash``
    together with the pool generation the batch was submitted against,
    so concurrent crash handlers can tell whether the pool they saw die
    has already been respawned by somebody else.
    """

    def __init__(self, cause: BaseException, generation: int) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.generation = generation


class EstimationService:
    """Transport-independent service core (see module docstring)."""

    def __init__(
        self,
        model: EnergyMacroModel,
        *,
        workers: int = 0,
        queue_limit: int = 64,
        batch_max: int = 8,
        batch_window: float = 0.005,
        dedupe: bool = True,
        memo_size: int = 4096,
        cache_dir: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        request_timeout: float = 30.0,
        explore_timeout: float = 600.0,
        prewarm: Sequence[str] = (),
        quarantine_after: int = 2,
        breaker_failures: int = 5,
        breaker_cooldown: float = 30.0,
        drain_grace: float = 10.0,
        chaos=None,
    ) -> None:
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if request_timeout <= 0 or explore_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if drain_grace < 0:
            raise ValueError(f"drain_grace must be >= 0, got {drain_grace}")
        self.model = model
        self.dedupe = dedupe
        self.batch_max = batch_max
        self.batch_window = batch_window
        self.request_timeout = request_timeout
        self.explore_timeout = explore_timeout
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=2)
        self.metrics = ServiceMetrics()
        self.coalescer = Coalescer(memo_size if dedupe else 0)
        self.pool = WorkerPool(model, workers=workers, prewarm=prewarm)
        self.result_cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir else None
        )
        self.queue = BatchQueue(queue_limit)
        #: observed completion rates, feeding computed Retry-After hints
        self.drain_rate = DrainRateEstimator()
        self.explore_drain = DrainRateEstimator(tau=60.0)
        #: most recent contained failures, for /healthz debugging
        self.failures: deque[SampleFailure] = deque(maxlen=64)
        #: crash accounting + poisoned-request isolation
        self.quarantine = QuarantineRegistry(threshold=quarantine_after)
        #: repeated pool crashes → degraded inline evaluation
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failures, cooldown=breaker_cooldown
        )
        #: optional deterministic fault injection (ServiceChaosPlan)
        self.chaos = chaos
        self.drain_grace = drain_grace
        self._dispatcher: Optional[asyncio.Task] = None
        self._batch_tasks: set[asyncio.Task] = set()
        self._active_explores = 0
        self._draining = False
        self._pool_lock = asyncio.Lock()
        self._batch_seq = 0  # chaos-plan dispatch ordinal

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="repro-serve-dispatcher"
            )

    def begin_drain(self) -> None:
        """Flip into draining: new work is refused with 503, in-flight
        requests keep going to completion."""
        self._draining = True

    async def drain(self, grace: Optional[float] = None) -> bool:
        """Wait (up to ``grace`` seconds) for in-flight work to complete.

        Returns True when the service fully drained — empty queue, no
        running batches, no active explorations — within the grace
        period.  Idle services return immediately.
        """
        self.begin_drain()
        grace = self.drain_grace if grace is None else grace
        deadline = time.monotonic() + grace
        while (
            self.queue.qsize() > 0
            or self._batch_tasks
            or self._active_explores > 0
        ):
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    async def stop(self) -> None:
        """Drain within the grace period, then halt the dispatch machinery."""
        await self.drain()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        for task in list(self._batch_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self.pool.shutdown()

    # -- HTTP dispatch -----------------------------------------------------

    async def dispatch_http(self, request: HttpRequest) -> bytes:
        keep_alive = request.keep_alive
        try:
            status, payload, headers = await self._route(request)
        except HttpProtocolError as exc:
            return json_response(
                exc.status,
                {"error": "protocol", "message": str(exc)},
                keep_alive=False,
            )
        except ApiError as exc:
            self.metrics.incr("responses_error")
            return json_response(
                exc.status,
                exc.to_payload(),
                exc.headers,
                keep_alive=keep_alive,
            )
        except Exception as exc:  # noqa: BLE001 — a request must never kill the loop
            self.metrics.incr("responses_error")
            return json_response(
                500,
                {"error": "internal", "message": f"{type(exc).__name__}: {exc}"},
                keep_alive=keep_alive,
            )
        if isinstance(payload, str):
            return text_response(status, payload, headers, keep_alive=keep_alive)
        return json_response(status, payload, headers, keep_alive=keep_alive)

    async def _route(self, request: HttpRequest):
        path, method = request.path, request.method
        if path == "/healthz":
            if method != "GET":
                raise ApiError(405, "use GET /healthz", code="method_not_allowed")
            return 200, self.health_payload(), None
        if path == "/metrics":
            if method != "GET":
                raise ApiError(405, "use GET /metrics", code="method_not_allowed")
            payload = self.metrics_payload()
            if request.query.get("format") == "prom":
                return 200, render_prometheus(payload), None
            return 200, payload, None
        if path == "/estimate":
            if method != "POST":
                raise ApiError(405, "use POST /estimate", code="method_not_allowed")
            self._refuse_if_draining()
            return await self._handle_estimate(request.json())
        if path == "/explore":
            if method != "POST":
                raise ApiError(405, "use POST /explore", code="method_not_allowed")
            self._refuse_if_draining()
            return await self._handle_explore(request.json())
        raise ApiError(404, f"no such endpoint {path!r}", code="not_found")

    def retry_after_hint(self) -> int:
        """Estimate-path Retry-After: queue depth over observed drain rate."""
        return retry_after_seconds(
            self.queue.qsize() + self.coalescer.inflight_count,
            self.drain_rate.rate,
        )

    def explore_retry_after_hint(self) -> int:
        """Explore-path Retry-After from the (slower) explore drain rate."""
        return retry_after_seconds(
            self._active_explores, self.explore_drain.rate, cold_start=5
        )

    def _refuse_if_draining(self) -> None:
        if self._draining:
            self.metrics.incr("drain_rejected_total")
            raise ApiError(
                503,
                "service is draining; no new work accepted",
                code="draining",
                headers={"Retry-After": str(self.retry_after_hint())},
            )

    # -- introspection endpoints -------------------------------------------

    def health_status(self) -> tuple[str, list[str]]:
        """The /healthz state machine: ok → degraded → draining, with reasons.

        ``draining`` wins (shutdown in progress), then ``degraded``
        (breaker open or probing half-open: requests are served inline,
        slower), else ``ok``.
        """
        reasons: list[str] = []
        if self._draining:
            reasons.append("shutdown in progress; new work refused with 503")
            return "draining", reasons
        breaker_state = self.breaker.state
        if breaker_state != "closed":
            reasons.append(
                f"circuit breaker {breaker_state}: repeated pool crashes; "
                "serving inline (degraded) until a probe batch succeeds"
            )
            return "degraded", reasons
        if self.quarantine.quarantined_count:
            reasons.append(
                f"{self.quarantine.quarantined_count} poisoned request key(s) "
                "quarantined; other traffic unaffected"
            )
        return "ok", reasons

    def supervision_payload(self) -> dict:
        return {
            "breaker": self.breaker.snapshot(),
            "quarantine": self.quarantine.snapshot(),
            "pool": {
                "mode": self.pool.mode,
                "workers": self.pool.workers,
                "restarts": self.pool.restarts,
                "generation": self.pool.generation,
            },
            "chaos": (
                {
                    "seed": self.chaos.seed,
                    "injected": self.chaos.injected_counts(),
                }
                if self.chaos is not None
                else None
            ),
        }

    def health_payload(self) -> dict:
        status, reasons = self.health_status()
        return {
            "status": status,
            "reasons": reasons,
            "uptime_seconds": time.time() - self.metrics.started_at,
            "pool": {
                "mode": self.pool.mode,
                "workers": self.pool.workers,
                "prewarmed": self.pool.prewarmed,
                "restarts": self.pool.restarts,
                "generation": self.pool.generation,
            },
            "breaker": self.breaker.snapshot(),
            "quarantine": {
                "held": self.quarantine.quarantined_count,
                "total": self.quarantine.total_quarantined,
            },
            "queue": {"depth": self.queue.qsize(), "limit": self.queue.maxsize},
            "inflight": self.coalescer.inflight_count,
            "recent_failures": [failure.describe() for failure in self.failures],
        }

    def metrics_payload(self) -> dict:
        from ..xtcore import compilation_cache

        return self.metrics.to_payload(
            compilation_cache=compilation_cache().info(),
            result_cache=(
                self.result_cache.info() if self.result_cache is not None else None
            ),
            supervision=self.supervision_payload(),
            admission={
                "queue_depth": self.queue.qsize(),
                "queue_limit": self.queue.maxsize,
                "drain": self.drain_rate.snapshot(),
                "explore_drain": self.explore_drain.snapshot(),
                "retry_after_s": self.retry_after_hint(),
            },
        )

    # -- estimate path -----------------------------------------------------

    async def _handle_estimate(self, body: object):
        began = time.perf_counter()
        self.metrics.incr("requests_total")
        self.metrics.incr("estimate_requests")
        req = parse_estimate(body)
        if req.benchmark is not None:
            item = {"benchmark": req.benchmark, "max_instructions": req.max_instructions}
        else:
            item = {
                "name": req.name,
                "source": req.source,
                "extensions": list(req.extensions),
                "max_instructions": req.max_instructions,
            }
        if req.operating_point is not None:
            # Only stamped when set so the wire item (and therefore the
            # worker path) is byte-identical to the pre-calibration shape
            # for point-less requests.
            item["operating_point"] = req.operating_point
        self.metrics.observe_operating_point(req.operating_point)
        try:
            config, program = resolve_workload(item)
        except ApiError:
            raise
        except Exception as exc:  # noqa: BLE001 — bad workload == bad request
            raise ApiError(400, f"cannot build workload: {exc}", code="bad_workload")
        # requests at different points must dedupe/cache separately: the
        # derived model at each point has its own digest
        key = candidate_cache_key(
            self.model.at(req.operating_point).digest(),
            config,
            program,
            req.max_instructions,
        )
        deadline = deadline_at(req.deadline_ms)
        payload, dedup = await self._obtain(
            key, config.fingerprint(), item, deadline=deadline
        )
        status, response = self._estimate_response(req, key, payload, dedup)
        self.metrics.observe_latency("estimate", time.perf_counter() - began)
        self.metrics.incr("responses_ok" if status == 200 else "responses_error")
        return status, response, None

    async def _obtain(
        self,
        key: str,
        group: str,
        item: dict,
        deadline: Optional[float] = None,
    ):
        """Answer one keyed estimate: memo, coalesce, disk cache, or enqueue."""
        if self.quarantine.is_quarantined(key):
            self.metrics.incr("quarantine_rejections_total")
            return (
                {
                    "ok": False,
                    "stage": "quarantine",
                    "error_type": "QuarantinedRequest",
                    "message": (
                        "request is quarantined: it repeatedly crashed the "
                        "worker pool"
                    ),
                },
                "quarantined",
            )
        if self.dedupe:
            memo = self.coalescer.find_memo(key)
            if memo is not None:
                self.metrics.incr("memo_hits_total")
                return memo, "memo"
            inflight = self.coalescer.find_inflight(key)
            if inflight is not None:
                self.metrics.incr("coalesced_total")
                return await asyncio.shield(inflight.future), "coalesced"
        if self.result_cache is not None:
            stored = self.result_cache.get(key)
            if stored is not None:
                payload = {**stored, "ok": True}
                self.metrics.incr("disk_cache_hits_total")
                if self.dedupe:
                    self.coalescer.close(key, payload)  # promote to memo
                return payload, "disk"
        job = Job(
            key=key,
            group=group,
            item=item,
            future=asyncio.get_running_loop().create_future(),
            deadline=deadline,
        )
        if self.dedupe:
            self.coalescer.open(job)
        try:
            self.queue.put_nowait(job)
        except asyncio.QueueFull:
            if self.dedupe:
                self.coalescer.close(key)
            self.metrics.incr("rejected_total")
            raise ApiError(
                429,
                f"estimation queue is full ({self.queue.maxsize} pending)",
                code="overloaded",
                headers={"Retry-After": str(self.retry_after_hint())},
            )
        self.metrics.set_gauge("queue_depth", self.queue.qsize())
        return await asyncio.shield(job.future), "fresh"

    def _estimate_response(
        self, req: EstimateRequest, key: str, payload: dict, dedup: str
    ):
        if payload.get("ok"):
            response = {
                "program": req.name,
                "processor": payload["processor"],
                "energy": payload["energy"],
                "cycles": payload["cycles"],
                "edp": payload["energy"] * payload["cycles"],
                "area": payload.get("area", 0.0),
                "key": key,
                "dedup": dedup,
            }
            if payload.get("operating_point") is not None:
                response["operating_point"] = payload["operating_point"]
                response["frequency_mhz"] = payload.get("frequency_mhz")
                if payload.get("seconds") is not None:
                    response["seconds"] = payload["seconds"]
            if req.variables and "variables" in payload:
                response["variables"] = payload["variables"]
            return 200, response
        stage = payload.get("stage")
        status = 504 if stage in ("timeout", "deadline") else 500
        if stage == "build":
            status = 400
        return status, {
            "error": "estimation_failed",
            "stage": payload.get("stage", "?"),
            "error_type": payload.get("error_type", "?"),
            "message": payload.get("message", ""),
            "key": key,
            "dedup": dedup,
        }

    # -- explore path ------------------------------------------------------

    async def _handle_explore(self, body: object):
        began = time.perf_counter()
        self.metrics.incr("requests_total")
        self.metrics.incr("explore_requests")
        req = parse_explore(body)
        if self._active_explores >= self.pool.workers:
            self.metrics.incr("rejected_total")
            raise ApiError(
                429,
                f"all {self.pool.workers} worker(s) busy with explorations",
                code="overloaded",
                headers={"Retry-After": str(self.explore_retry_after_hint())},
            )
        item = {
            "space": req.space,
            "strategy": req.strategy,
            "budget": req.budget,
            "seed": req.seed,
            "objective": req.objective,
            "max_instructions": req.max_instructions,
            "top_k": req.top_k,
            "operating_point": req.operating_point,
            "cache_root": self.result_cache.root if self.result_cache else None,
        }
        self.metrics.observe_operating_point(req.operating_point)
        self._active_explores += 1
        try:
            future = self.pool.submit_explore(item)
            try:
                outcome = await asyncio.wait_for(
                    asyncio.wrap_future(future), self.explore_timeout
                )
            except asyncio.TimeoutError:
                future.cancel()
                self.metrics.incr("timeouts_total")
                failure = SampleFailure(
                    name=f"explore:{req.space}",
                    processor_name="",
                    stage="timeout",
                    error_type="TimeoutError",
                    message=f"exploration exceeded {self.explore_timeout}s",
                    attempts=1,
                )
                self._record_failure(failure)
                raise ApiError(504, failure.describe(), code="timeout")
        finally:
            self._active_explores -= 1
            self.explore_drain.record(1)
        elapsed = time.perf_counter() - began
        self.metrics.observe_latency("explore", elapsed)
        if not outcome.get("ok"):
            self.metrics.incr("responses_error")
            failure = SampleFailure(
                name=f"explore:{req.space}",
                processor_name="",
                stage=outcome.get("stage", "explore"),
                error_type=outcome.get("error_type", "?"),
                message=outcome.get("message", ""),
                attempts=1,
            )
            self._record_failure(failure)
            bad_request = failure.error_type in (
                "SpaceError",
                "ValueError",
                "CalibrationError",
            )
            return (
                400 if bad_request else 500,
                {
                    "error": "exploration_failed",
                    "stage": failure.stage,
                    "error_type": failure.error_type,
                    "message": failure.message,
                },
                None,
            )
        self.metrics.incr("responses_ok")
        return 200, outcome["report"], None

    # -- batch dispatch ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            jobs = await self.queue.next_batch(self.batch_max, self.batch_window)
            self.metrics.set_gauge("queue_depth", self.queue.qsize())
            for group in partition_compatible(jobs):
                task = asyncio.create_task(self._run_batch(group))
                self._batch_tasks.add(task)
                task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, jobs: list[Job]) -> None:
        self.metrics.incr("batches_dispatched")
        self.metrics.incr("batched_requests", len(jobs))
        self.metrics.set_gauge("inflight", self.coalescer.inflight_count)
        try:
            await self._run_supervised(jobs)
        finally:
            # every job left the system (resolved, failed or shed): that is
            # a drain event, and the drain rate is what Retry-After quotes
            self.drain_rate.record(len(jobs))
            self.metrics.set_gauge("inflight", self.coalescer.inflight_count)

    async def _run_supervised(self, jobs: list[Job]) -> None:
        """Run one batch to full resolution, surviving pool death.

        The recovery ladder: shed unservable jobs (expired deadline,
        quarantined key) → degraded inline path while the breaker is
        open → normal pool dispatch with timeout/retry → on a pool
        crash, respawn and either retry (singleton), bisect (multi-job,
        to isolate a poisoned request) or quarantine (singleton that
        keeps crashing the pool).
        """
        jobs = self._shed_unservable(jobs)
        if not jobs:
            return
        if not self.breaker.allows_pool():
            await self._run_degraded(jobs)
            return
        try:
            outcome, attempts = await self._dispatch_with_retry(jobs)
        except _PoolCrash as crash:
            await self._handle_pool_crash(jobs, crash)
            return
        except Exception as exc:  # noqa: BLE001 — a dead pool must not hang waiters
            self._fail_batch(
                jobs,
                stage="dispatch",
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=1,
            )
            return
        if outcome is None:
            return  # timeout budget exhausted; waiters already failed
        self.breaker.record_success()
        self._resolve_batch(jobs, outcome, attempts)

    async def _dispatch_with_retry(self, jobs: list[Job]):
        """The pool dispatch loop: timeouts retry on lowered budgets.

        Returns ``(outcome, attempts)``; ``(None, attempts)`` when the
        retry budget is exhausted (waiters are failed with 504 here).
        A pool death is re-raised as :class:`_PoolCrash` carrying the
        pool generation the batch was submitted against.
        """
        attempt = 0
        while True:
            attempt += 1
            items = [
                {
                    **job.item,
                    "max_instructions": self.retry.budget_for(
                        attempt, job.item["max_instructions"]
                    ),
                }
                for job in jobs
            ]
            for job, item in zip(jobs, items):
                if job.deadline is not None:
                    item[DEADLINE_KEY] = job.deadline
            directive = self._stamp_chaos(items)
            generation = self.pool.generation
            try:
                try:
                    future = self.pool.submit_estimate_batch(items)
                except Exception as exc:
                    # the pool broke under a concurrent batch before this
                    # submit: the stamped directive never reached a worker,
                    # so put it back on the schedule for a later dispatch.
                    # Hangs are re-armed by the outer handler (which also
                    # covers a batch dying *queued* in a broken pool) —
                    # re-arming here too would schedule the hang twice.
                    if (
                        is_pool_crash(exc)
                        and directive is not None
                        and not directive.startswith("hang")
                    ):
                        self.chaos.rearm(directive, self._batch_seq)
                    raise
                outcome = await asyncio.wait_for(
                    asyncio.wrap_future(future), self.request_timeout
                )
                return outcome, attempt
            except asyncio.TimeoutError:
                future.cancel()
                self.metrics.incr("timeouts_total")
                if self.pool.mode == "fork":
                    # a fork-mode timeout may be a wedged worker, which
                    # never finishes on its own: kill + respawn so the
                    # retry (and everyone else) lands on a healthy pool
                    self.metrics.incr("worker_hangs_total")
                    await self._respawn_pool(generation)
                if attempt >= self.retry.max_attempts:
                    self._fail_batch(
                        jobs,
                        stage="timeout",
                        error_type="TimeoutError",
                        message=(
                            f"batch of {len(jobs)} timed out after {attempt} "
                            f"attempt(s) of {self.request_timeout}s"
                        ),
                        attempts=attempt,
                    )
                    return None, attempt
                self.metrics.incr("retries_total")
            except Exception as exc:  # noqa: BLE001 — classified by the caller
                if is_pool_crash(exc):
                    # a hang directive cannot break the pool, so this
                    # break came from elsewhere (a crash directive or a
                    # poisoned item, possibly in a concurrent batch) and
                    # the scheduled hang never played out — re-arm it
                    if directive is not None and directive.startswith("hang"):
                        self.chaos.rearm(directive, self._batch_seq)
                    raise _PoolCrash(exc, generation) from exc
                raise

    async def _handle_pool_crash(self, jobs: list[Job], crash: "_PoolCrash") -> None:
        """Respawn after a worker death, then isolate whoever caused it."""
        self.metrics.incr("worker_crashes_total")
        if self.breaker.record_failure():
            self.metrics.incr("breaker_trips_total")
        await self._respawn_pool(crash.generation)
        if not self.breaker.allows_pool():
            await self._run_degraded(jobs)
            return
        if len(jobs) == 1:
            job = jobs[0]
            name = job.item.get("benchmark") or job.item.get("name", "?")
            if self.quarantine.record_crash(job.key, name):
                self.metrics.incr("quarantined_total")
                self._fail_job(
                    job,
                    stage="quarantine",
                    error_type=type(crash.cause).__name__,
                    message=(
                        f"request crashed the worker pool "
                        f"{self.quarantine.threshold} time(s) in isolation; "
                        "quarantined"
                    ),
                    attempts=self.quarantine.threshold,
                )
                return
            await self._run_supervised(jobs)
            return
        # bisect: innocents in one half finish normally, the poisoned
        # request ends up alone and is quarantined by the singleton path
        mid = (len(jobs) + 1) // 2
        await self._run_supervised(jobs[:mid])
        await self._run_supervised(jobs[mid:])

    async def _respawn_pool(self, generation: int) -> None:
        """Serialize concurrent crash handlers into one pool restart."""
        async with self._pool_lock:
            if self.pool.generation == generation:
                self.metrics.incr("pool_restarts_total")
                await asyncio.to_thread(self.pool.restart)

    async def _run_degraded(self, jobs: list[Job]) -> None:
        """Breaker-open path: evaluate inline, chaos-free, single-threaded."""
        self.metrics.incr("degraded_batches_total")
        items = []
        for job in jobs:
            item = dict(job.item)
            item.pop(CHAOS_KEY, None)  # the degraded path never injects
            if job.deadline is not None:
                item[DEADLINE_KEY] = job.deadline
            items.append(item)
        future = self.pool.submit_inline_batch(items)
        try:
            outcome = await asyncio.wait_for(
                asyncio.wrap_future(future), self.request_timeout
            )
        except asyncio.TimeoutError:
            future.cancel()
            self.metrics.incr("timeouts_total")
            self._fail_batch(
                jobs,
                stage="timeout",
                error_type="TimeoutError",
                message=(
                    f"degraded inline batch of {len(jobs)} timed out after "
                    f"{self.request_timeout}s"
                ),
                attempts=1,
            )
            return
        except Exception as exc:  # noqa: BLE001 — inline failures fail the batch
            self._fail_batch(
                jobs,
                stage="degraded",
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=1,
            )
            return
        self._resolve_batch(jobs, outcome, attempts=1)

    def _stamp_chaos(self, items: list[dict]) -> Optional[str]:
        """Attach the chaos plan's directives to one dispatch's items.

        Returns the plan-scheduled directive (if one fired for this
        ordinal) so the dispatcher can re-arm it when the batch never
        reaches a worker.  Poison stamps need no such care — they
        re-fire on every dispatch of the poisoned item.
        """
        if self.chaos is None:
            return None
        ordinal = self._batch_seq
        self._batch_seq += 1
        directive = self.chaos.directive_for_batch(ordinal)
        if directive is not None:
            items[0][CHAOS_KEY] = directive
            self.metrics.incr("chaos_injected_total")
        for item in items:
            if self.chaos.is_poisoned(item):
                item[CHAOS_KEY] = "crash"
                self.metrics.incr("chaos_injected_total")
        return directive

    def _shed_unservable(self, jobs: list[Job]) -> list[Job]:
        """Answer expired/quarantined jobs immediately; return the rest."""
        ready: list[Job] = []
        for job in jobs:
            if job.expired:
                self.metrics.incr("deadline_shed_total")
                self._fail_job(
                    job,
                    stage="deadline",
                    error_type="DeadlineExceeded",
                    message="deadline expired before dispatch",
                    attempts=0,
                    record=False,
                )
            elif self.quarantine.is_quarantined(job.key):
                self.metrics.incr("quarantine_rejections_total")
                self._fail_job(
                    job,
                    stage="quarantine",
                    error_type="QuarantinedRequest",
                    message=(
                        "request is quarantined: it repeatedly crashed the "
                        "worker pool"
                    ),
                    attempts=0,
                    record=False,
                )
            else:
                ready.append(job)
        return ready

    def _resolve_batch(self, jobs: list[Job], outcome: dict, attempts: int) -> None:
        for job, payload in zip(jobs, outcome["results"]):
            if payload.get("ok"):
                self.quarantine.record_success(job.key)
                if self.dedupe:
                    self.coalescer.close(job.key, payload)
                if self.result_cache is not None:
                    stored = {k: v for k, v in payload.items() if k != "ok"}
                    self.result_cache.put(job.key, stored)
            else:
                if self.dedupe:
                    self.coalescer.close(job.key)
                if payload.get("stage") == "deadline":
                    # shed worker-side, just before simulation would start
                    self.metrics.incr("deadline_shed_total")
                else:
                    self._record_failure(
                        SampleFailure(
                            name=job.item.get("benchmark")
                            or job.item.get("name", "?"),
                            processor_name="",
                            stage=payload.get("stage", "?"),
                            error_type=payload.get("error_type", "?"),
                            message=payload.get("message", ""),
                            attempts=attempts,
                        )
                    )
            if not job.future.done():
                job.future.set_result(payload)
        self.metrics.merge_sim_snapshot(outcome.get("tally", {}))

    def _fail_job(
        self,
        job: Job,
        stage: str,
        error_type: str,
        message: str,
        attempts: int,
        record: bool = True,
    ) -> None:
        if self.dedupe:
            self.coalescer.close(job.key)
        if record:
            self._record_failure(
                SampleFailure(
                    name=job.item.get("benchmark") or job.item.get("name", "?"),
                    processor_name="",
                    stage=stage,
                    error_type=error_type,
                    message=message,
                    attempts=attempts,
                )
            )
        if not job.future.done():
            job.future.set_result(
                {
                    "ok": False,
                    "stage": stage,
                    "error_type": error_type,
                    "message": message,
                }
            )

    def _fail_batch(
        self, jobs: list[Job], stage: str, error_type: str, message: str, attempts: int
    ) -> None:
        for job in jobs:
            self._fail_job(job, stage, error_type, message, attempts)
        self.metrics.set_gauge("inflight", self.coalescer.inflight_count)

    def _record_failure(self, failure: SampleFailure) -> None:
        self.metrics.incr("failures_total")
        self.failures.append(failure)


class EstimationServer:
    """asyncio TCP transport around one :class:`EstimationService`."""

    def __init__(
        self, service: EstimationService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpProtocolError as exc:
                    writer.write(
                        json_response(
                            exc.status,
                            {"error": "protocol", "message": str(exc)},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self.service.dispatch_http(request)
                chaos = self.service.chaos
                if chaos is not None and chaos.take_connection_reset():
                    # mid-response reset: ship a partial response, then
                    # abort the transport — the client sees a torn read
                    self.service.metrics.incr("chaos_injected_total")
                    writer.write(response[: max(1, len(response) // 2)])
                    with contextlib.suppress(Exception):
                        await writer.drain()
                    writer.transport.abort()
                    return
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


def write_port_file(path: str, port: int) -> None:
    """Publish a bound port atomically (watchers never read a torn file)."""
    import os

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(f"{port}\n")
    os.replace(tmp, path)


async def run_server(
    service: EstimationService,
    host: str = "127.0.0.1",
    port: int = 8731,
    announce=print,
    port_file: Optional[str] = None,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain and shut down cleanly.

    ``port_file`` publishes the bound port (atomically, after the
    listener is up) so supervisors — CI smokes, the benchmark — can
    discover an ephemeral ``--port 0`` binding without log scraping.
    """
    import signal

    server = EstimationServer(service, host, port)
    await server.start()
    if port_file is not None:
        write_port_file(port_file, server.port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # non-unix loops
            loop.add_signal_handler(signum, stop.set)
    announce(
        f"repro serve: listening on {server.address} "
        f"({service.pool.mode} pool, {service.pool.workers} worker(s), "
        f"queue limit {service.queue.maxsize})"
    )
    try:
        await stop.wait()
    finally:
        # drain with the listener still open: late requests are answered
        # 503 "draining" instead of a connection refused, and in-flight
        # batches run to completion before the transport goes away
        announce("repro serve: draining (in-flight work completing)")
        drained = await service.drain()
        announce(
            "repro serve: drained cleanly, shutting down"
            if drained
            else "repro serve: drain grace expired, shutting down anyway"
        )
        await server.stop()
