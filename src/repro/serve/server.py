"""The estimation service: routing, policy, lifecycle.

:class:`EstimationService` owns the whole request path —

    parse → resolve (config, program) → content-address → dedupe
    (memo / in-flight) → bounded queue → batch of
    what is queued when a worker is free → a forked worker, over its own
    pipe → resolve coalesced waiters → memoize

— and exposes it over four endpoints:

========================  ===================================================
``POST /estimate``        macro-model energy of one program (coalesced+batched)
``POST /explore``         one DSE run over a bundled space (pool-dispatched)
``GET  /healthz``         liveness + queue/pool posture + quarantine count
``GET  /metrics``         counters, p50/p95 latency, cache rates (JSON or prom)
========================  ===================================================

Batching adapts to load: the dispatcher holds one slot per pool worker
and harvests only when a slot is free, taking every job already queued
(up to ``batch_max``) without waiting.  A lone request on an idle
service is dispatched at once; requests that arrive while the workers
are busy leave together as the next batch.

Backpressure is explicit: a full queue answers ``429`` with a
``Retry-After`` header instead of buffering unboundedly.  Per-batch
timeouts follow a :class:`~repro.serve.supervise.RetryPolicy` — a
timed-out batch is retried with the policy's lowered instruction
budget, and a batch that exhausts its attempts resolves every waiter
with a :class:`~repro.core.runner.SampleFailure`-shaped ``504``.

The service is **self-healing** (see :mod:`repro.serve.supervise`).  A
pool crash, however often it repeats, always climbs one ladder —
respawn, bisect, quarantine:

* a worker crash (EOF on the worker's pipe mid-batch,
  :class:`~repro.serve.supervise.WorkerCrashed`) respawns the worker —
  prewarmed lowerings are re-inherited copy-on-write — and re-dispatches
  the interrupted batch;
* a multi-request batch that keeps crashing is **bisected** until the
  poisoned request is isolated; after ``quarantine_after`` singleton
  crashes the key is quarantined and answered with a typed ``500``
  while the rest of the traffic keeps flowing;
* a timed-out fork-mode batch is treated as a *hung worker*: the
  abandoned call kills and replaces the wedged child before the retry;
* client ``deadline_ms`` propagates through the queue into the worker,
  shedding expired requests with ``504`` before they pay for simulation
  (at harvest, after waiting behind busy workers, and again worker-side);
* SIGTERM drains: in-flight batches complete, new work is refused with
  ``503``, idle keep-alive connections are closed, and the process exits
  0; the whole shutdown waits at most one ``drain_grace``.

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
from ..core.runner import SampleFailure
from ..dse.cache import candidate_cache_key
from .admission import DrainRateEstimator, retry_after_seconds
from .api import (
    ApiError,
    EstimateRequest,
    parse_estimate,
    parse_explore,
)
from .batching import BatchQueue, Coalescer, Job
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
    QuarantineRegistry,
    RetryPolicy,
    deadline_at,
    is_pool_crash,
)


class _PoolCrash(Exception):
    """Internal carrier: a dispatch died of pool death.

    Wraps the original ``WorkerCrashed``/``InjectedWorkerCrash``
    together with the pool generation the batch was dispatched against,
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
        dedupe: bool = True,
        memo_size: int = 4096,
        retry: Optional[RetryPolicy] = None,
        request_timeout: float = 30.0,
        explore_timeout: float = 600.0,
        prewarm: Sequence[str] = (),
        quarantine_after: int = 2,
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
        #: template order of a payload's variables, for pricing
        self._variable_keys = tuple(model.template.keys())
        self.dedupe = dedupe
        self.batch_max = batch_max
        self.request_timeout = request_timeout
        self.explore_timeout = explore_timeout
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=2)
        self.metrics = ServiceMetrics()
        self.coalescer = Coalescer(memo_size if dedupe else 0)
        self.pool = WorkerPool(model, workers=workers, prewarm=prewarm)
        self.queue = BatchQueue(queue_limit)
        #: observed completion rates, feeding computed Retry-After hints
        self.drain_rate = DrainRateEstimator()
        self.explore_drain = DrainRateEstimator(tau=60.0)
        #: most recent contained failures, for /healthz debugging
        self.failures: deque[SampleFailure] = deque(maxlen=64)
        #: crash accounting + poisoned-request isolation
        self.quarantine = QuarantineRegistry(threshold=quarantine_after)
        #: optional deterministic fault injection (ServiceChaosPlan)
        self.chaos = chaos
        self.drain_grace = drain_grace
        self._dispatcher: Optional[asyncio.Task] = None
        #: running harvest task -> the jobs it carries
        self._batch_tasks: dict[asyncio.Task, list[Job]] = {}
        self._active_explores = 0
        #: waiters of running explorations, cancelled when the service halts
        self._explore_waiters: set[asyncio.Future] = set()
        self._halted = False
        #: when the drain grace runs out; None until draining begins
        self._drain_deadline: Optional[float] = None
        # crash recovery owns the pool exclusively (see _handle_pool_crash):
        # fresh batches pass through _recovery_lock before they submit, and
        # recovery waits for _pool_quiet, set when no fresh batch is on it
        self._recovery_lock = asyncio.Lock()
        self._pool_quiet = asyncio.Event()
        self._pool_quiet.set()
        self._fresh_on_pool = 0
        self._batch_seq = 0  # chaos-plan dispatch ordinal

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="repro-serve-dispatcher"
            )

    def begin_drain(self) -> float:
        """Flip into draining: new work is refused with 503, in-flight
        requests keep going to completion.

        The first call starts the one ``drain_grace`` period; returns the
        instant it runs out.
        """
        if self._drain_deadline is None:
            self._drain_deadline = time.monotonic() + self.drain_grace
        return self._drain_deadline

    async def drain(self, grace: Optional[float] = None) -> bool:
        """Wait for in-flight work to complete.

        The wait ends when the drain grace started by :meth:`begin_drain`
        runs out, so repeated drains share one grace period; an explicit
        ``grace`` waits that many seconds from now instead.  Returns True
        when the service fully drained — empty queue, no running batches,
        no active explorations — in time.  Idle services return
        immediately.
        """
        deadline = self.begin_drain()
        if grace is not None:
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

    async def stop(self) -> bool:
        """Drain within the grace period, then halt the dispatch machinery.

        Returns whether the drain completed; if not, the work still in
        flight was abandoned, and every abandoned request — a queued or
        running estimate, a running exploration — is answered 503 with
        ``stage="shutdown"``.
        """
        drained = await self.drain()
        self._halted = True
        abandoned = [job for jobs in self._batch_tasks.values() for job in jobs]
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        for task in list(self._batch_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        abandoned += self.queue.take_all()
        self._fail_batch(
            [job for job in abandoned if not job.future.done()],
            stage="shutdown",
            error_type="ServiceShutdown",
            message="the service shut down before this request was served",
            attempts=0,
        )
        for waiter in self._explore_waiters:
            waiter.cancel()
        self.pool.shutdown()
        return drained

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
        if self._drain_deadline is not None:
            self.metrics.incr("drain_rejected_total")
            raise ApiError(
                503,
                "service is draining; no new work accepted",
                code="draining",
                headers={"Retry-After": str(self.retry_after_hint())},
            )

    # -- introspection endpoints -------------------------------------------

    def health_status(self) -> tuple[str, list[str]]:
        """The /healthz status, ``ok`` or ``draining``, with its reasons."""
        reasons: list[str] = []
        if self._drain_deadline is not None:
            reasons.append("shutdown in progress; new work refused with 503")
            return "draining", reasons
        if self.quarantine.quarantined_count:
            reasons.append(
                f"{self.quarantine.quarantined_count} poisoned request key(s) "
                "quarantined; other traffic unaffected"
            )
        return "ok", reasons

    def supervision_payload(self) -> dict:
        return {
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
        self.metrics.observe_operating_point(req.operating_point)
        try:
            config, program = resolve_workload(item)
        except ApiError:
            raise
        except Exception as exc:  # noqa: BLE001 — bad workload == bad request
            raise ApiError(400, f"cannot build workload: {exc}", code="bad_workload")
        if "source" in item:
            # the worker simulates this assembly instead of repeating it
            del item["source"]
            item["program"] = program
        # a point rescales the coefficients, never the simulation: the
        # memo, the coalescer and the quarantine share one point-free key,
        # and each request is priced at its own point from the variables
        model = self.model.at(req.operating_point)
        sim_key = candidate_cache_key(
            self.model.digest(), config, program, req.max_instructions
        )
        key = candidate_cache_key(model.digest(), config, program, req.max_instructions)
        deadline = deadline_at(req.deadline_ms)
        payload, dedup = await self._obtain(sim_key, item, deadline=deadline)
        status, response = self._estimate_response(req, model, key, payload, dedup)
        self.metrics.observe_latency("estimate", time.perf_counter() - began)
        self.metrics.incr("responses_ok" if status == 200 else "responses_error")
        return status, response, None

    async def _obtain(
        self,
        key: str,
        item: dict,
        deadline: Optional[float] = None,
    ):
        """Answer one keyed estimate: memo, coalesce, or enqueue."""
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
        job = Job(
            key=key,
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
        self,
        req: EstimateRequest,
        model: EnergyMacroModel,
        key: str,
        payload: dict,
        dedup: str,
    ):
        """The response to one request, priced by ``model`` (its point's)."""
        if payload.get("ok"):
            variables = payload["variables"]
            energy = model.energy_of([variables[name] for name in self._variable_keys])
            cycles = payload["cycles"]
            response = {
                "program": req.name,
                "processor": payload["processor"],
                "energy": energy,
                "cycles": cycles,
                "edp": energy * cycles,
                "area": payload.get("area", 0.0),
                "key": key,
                "dedup": dedup,
            }
            point = model.operating_point
            if point is not None:
                response["operating_point"] = point.key
                response["frequency_mhz"] = point.frequency_mhz
                response["seconds"] = point.seconds(cycles)
            if req.variables:
                response["variables"] = variables
            return 200, response
        stage = payload.get("stage")
        status = 504 if stage in ("timeout", "deadline") else 500
        if stage == "shutdown":
            status = 503
        elif stage == "build":
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
        }
        self.metrics.observe_operating_point(req.operating_point)
        self._active_explores += 1
        try:
            waiter = asyncio.ensure_future(self.pool.explore(item))
            self._explore_waiters.add(waiter)
            try:
                outcome = await asyncio.wait_for(waiter, self.explore_timeout)
            except asyncio.CancelledError:
                if not self._halted:
                    raise
                outcome = {
                    "ok": False,
                    "stage": "shutdown",
                    "error_type": "ServiceShutdown",
                    "message": "the service shut down before this exploration finished",
                }
            except asyncio.TimeoutError:
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
                self._explore_waiters.discard(waiter)
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
            status = 500
            if failure.stage == "shutdown":
                status = 503
            elif failure.error_type in ("SpaceError", "ValueError", "CalibrationError"):
                status = 400
            return (
                status,
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
        # one slot per worker: a harvest waits for a free worker, so jobs
        # arriving meanwhile build up in the queue and leave as one batch
        slots = asyncio.Semaphore(self.pool.workers)
        while True:
            await slots.acquire()
            jobs = await self.queue.next_batch(self.batch_max)
            self.metrics.set_gauge("queue_depth", self.queue.qsize())
            task = asyncio.create_task(self._run_harvest(jobs, slots))
            self._batch_tasks[task] = jobs
            task.add_done_callback(self._batch_tasks.pop)

    async def _run_harvest(self, jobs: list[Job], slots: asyncio.Semaphore) -> None:
        """Run a harvest as one batch on its one slot.

        The slot is released however the batch ends — answered, shed,
        timed out or crashed — so the next harvest can go.
        """
        try:
            await self._run_batch(jobs)
        finally:
            slots.release()

    async def _run_batch(self, jobs: list[Job]) -> None:
        self.metrics.incr("batches_dispatched")
        self.metrics.incr("batched_requests", len(jobs))
        self.metrics.set_gauge("inflight", self.coalescer.inflight_count)
        self.metrics.observe_queue_wait(
            [time.monotonic() - job.enqueued_at for job in jobs]
        )
        try:
            await self._run_supervised(jobs)
        except Exception as exc:  # noqa: BLE001 — no waiter may hang
            self._fail_batch(
                [job for job in jobs if not job.future.done()],
                stage="dispatch",
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=1,
            )
        finally:
            # every job left the system (resolved, failed or shed): that is
            # a drain event, and the drain rate is what Retry-After quotes
            self.drain_rate.record(len(jobs))
            self.metrics.set_gauge("inflight", self.coalescer.inflight_count)

    async def _run_supervised(self, jobs: list[Job], recovering: bool = False) -> None:
        """Run one batch to full resolution, surviving pool death.

        The recovery ladder: shed unservable jobs (expired deadline,
        quarantined key) → pool dispatch with timeout/retry → on a pool
        crash, respawn and either retry (singleton), bisect (multi-job,
        to isolate a poisoned request) or quarantine (singleton that
        keeps crashing the pool).  ``recovering`` marks a re-run that
        already owns the pool (see :meth:`_handle_pool_crash`).
        """
        jobs = self._shed_unservable(jobs)
        if not jobs:
            return
        try:
            outcome, attempts = await self._dispatch_with_retry(jobs, recovering)
        except _PoolCrash as crash:
            await self._handle_pool_crash(jobs, crash, recovering)
            return
        if outcome is None:
            return  # timeout budget exhausted; waiters already failed
        self._resolve_batch(jobs, outcome, attempts)

    async def _dispatch_with_retry(self, jobs: list[Job], recovering: bool):
        """The pool dispatch loop: timeouts retry on lowered budgets.

        Returns ``(outcome, attempts)``; ``(None, attempts)`` when the
        retry budget is exhausted (waiters are failed with 504 here).
        A pool death is re-raised as :class:`_PoolCrash` carrying the
        pool generation the batch was submitted against.  A fresh
        (not ``recovering``) batch waits out any crash recovery before
        each attempt.
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
            directive = self._stamp_chaos(jobs, items)
            try:
                async with self._pool_turn(recovering):
                    # read after any wait for a recovery
                    generation = self.pool.generation
                    began = time.perf_counter()
                    try:
                        outcome = await asyncio.wait_for(
                            self.pool.estimate_batch(items), self.request_timeout
                        )
                    except asyncio.TimeoutError:
                        if self.pool.mode == "fork":
                            # a fork-mode timeout may be a wedged worker,
                            # which never finishes on its own: abandoning
                            # the call killed and replaced that child, so
                            # the retry lands on a healthy one; the restart
                            # counts the respawn while this batch still
                            # holds its turn
                            self.metrics.incr("worker_hangs_total")
                            self._respawn_pool(generation)
                        raise
                    self.metrics.observe_round_trip(
                        time.perf_counter() - began,
                        outcome.get("tally", {}).get("batch_seconds", 0.0),
                    )
                return outcome, attempt
            except asyncio.TimeoutError:
                self.metrics.incr("timeouts_total")
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
                    # a hang directive cannot kill its worker, so this
                    # death came from elsewhere (the child was killed
                    # from outside) and the scheduled hang never played
                    # out — re-arm it
                    if directive is not None and directive.startswith("hang"):
                        self.chaos.rearm(directive, self._batch_seq)
                    raise _PoolCrash(exc, generation) from exc
                raise

    @contextlib.asynccontextmanager
    async def _pool_turn(self, recovering: bool):
        """One dispatch's stay on the pool.

        A fresh batch waits out any crash recovery and is counted while
        it runs; a recovery re-run already owns the pool.
        """
        if recovering:
            yield
            return
        async with self._recovery_lock:
            self._fresh_on_pool += 1
            self._pool_quiet.clear()
        try:
            yield
        finally:
            self._fresh_on_pool -= 1
            if not self._fresh_on_pool:
                self._pool_quiet.set()

    async def _handle_pool_crash(
        self, jobs: list[Job], crash: "_PoolCrash", recovering: bool
    ) -> None:
        """Respawn after a worker death, then isolate whoever caused it.

        A crashed batch is re-run as a *recovery*: one at a time, under
        the recovery lock, and alone on the pool — new fresh batches wait
        and those already running finish first.  A crash seen in
        recovery is therefore the suspect's own, never a neighbour's, so
        an innocent that shared a pool with a crasher collects at most
        the one strike of that first crash, which its next success
        clears.
        """
        self.metrics.incr("worker_crashes_total")
        self._respawn_pool(crash.generation)
        if recovering:
            await self._isolate_crash(jobs, crash)
            return
        async with self._recovery_lock:
            await self._pool_quiet.wait()
            await self._isolate_crash(jobs, crash)

    async def _isolate_crash(self, jobs: list[Job], crash: "_PoolCrash") -> None:
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
            await self._run_supervised(jobs, recovering=True)
            return
        # bisect: innocents in one half finish normally, the poisoned
        # request ends up alone and is quarantined by the singleton path
        mid = (len(jobs) + 1) // 2
        await self._run_supervised(jobs[:mid], recovering=True)
        await self._run_supervised(jobs[mid:], recovering=True)

    def _respawn_pool(self, generation: int) -> None:
        """Deduplicate concurrent crash handlers into one pool restart."""
        if self.pool.generation == generation:
            self.metrics.incr("pool_restarts_total")
            self.pool.restart()

    def _stamp_chaos(self, jobs: list[Job], items: list[dict]) -> Optional[str]:
        """Attach the chaos plan's directives to one dispatch's items.

        The plan's schedule skips a dispatch made only of suspects (keys
        with a crash strike): that is the probe deciding their next
        strike, and a scheduled fault landing there would fabricate
        evidence against an innocent.  A scheduled fault due on a batch
        that carries poison moves to the next scheduled dispatch: the
        poison kills this one anyway, and the plan promises its faults
        as separate events.  Returns the plan-scheduled directive (if
        one fired for this ordinal) so the dispatcher can re-arm it when
        the batch never reaches a worker.  Poison stamps need no such
        care — they re-fire on every dispatch of the poisoned item.
        """
        if self.chaos is None:
            return None
        poisoned = [item for item in items if self.chaos.is_poisoned(item)]
        directive = None
        if not all(self.quarantine.is_suspect(job.key) for job in jobs):
            directive = self.chaos.directive_for_batch(self._batch_seq)
            self._batch_seq += 1
            if directive is not None and poisoned:
                self.chaos.rearm(directive, self._batch_seq)
                directive = None
        if directive is not None:
            items[0][CHAOS_KEY] = directive
            self.metrics.incr("chaos_injected_total")
        for item in poisoned:
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
        #: connection handler task -> its writer while it waits for a
        #: request, None while it serves one
        self._connections: dict[asyncio.Task, Optional[asyncio.StreamWriter]] = {}
        self._stopping = False

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and shut down without stranding a connection.

        Connections waiting for their next request are closed at once.
        One serving a request is closed after its response is written;
        when the drain grace runs out first, that response is the 503
        the halted service answers the abandoned request with.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._connections.values()):
            if writer is not None:
                writer.close()  # its handler reads EOF and ends
        await self.service.stop()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None  # start_server runs each handler as a task
        try:
            while not self._stopping:
                self._connections[task] = writer
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
                self._connections[task] = None
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
            self._connections.pop(task, None)
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
