"""Request coalescing and batch assembly.

Two independent mechanisms make a duplicate-heavy workload cheap:

* **Coalescing** (:class:`Coalescer`): each estimate request is
  content-addressed by :func:`repro.dse.cache.candidate_cache_key`.  A request
  whose key is already *in flight* attaches to the existing job's future
  instead of enqueueing a second simulation; a request whose key is in
  the bounded completed-**memo** is answered without touching the queue
  at all.  Simulation is a pure function of (model, config, program,
  budget) and an operating point only rescales the coefficients, so
  the key leaves the point out and both merges are exact, not
  heuristic; the server prices each waiter at its own point.
* **Batching** (:class:`BatchQueue`): the dispatcher harvests only when
  a worker slot is free, and then takes every job already queued, up to
  ``max_batch``, without waiting for more.  Jobs that arrive while the
  workers are busy build up in the queue and leave together as the next
  batch, so batch width grows with load and a lone request on an idle
  service is dispatched at once.  A harvest goes to the pool as one
  batch: one worker round-trip amortizes pool overhead across it, and
  the worker's estimation kernel groups the jobs that share a
  simulation — the server-side analog of the CLI's multi-program
  ``estimate`` fast path.

The queue is **bounded**: ``put_nowait`` raising
:class:`asyncio.QueueFull` is the backpressure signal the server turns
into ``429 Retry-After``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import OrderedDict
from typing import Optional


@dataclasses.dataclass
class Job:
    """One enqueued estimate, shared by every coalesced waiter."""

    key: str
    #: picklable worker item (see :func:`repro.serve.pool.resolve_workload`)
    item: dict
    future: "asyncio.Future[dict]"
    enqueued_at: float = dataclasses.field(default_factory=time.monotonic)
    #: how many requests this job answers (1 + coalesced attachments)
    waiters: int = 1
    #: absolute monotonic deadline (None = none); checked at harvest time
    #: and again worker-side, so an expired request is shed, not simulated
    deadline: Optional[float] = None

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


class Coalescer:
    """Exact duplicate suppression: an in-flight map plus a completed memo."""

    def __init__(self, memo_size: int = 4096) -> None:
        if memo_size < 0:
            raise ValueError(f"memo_size must be >= 0, got {memo_size}")
        self.memo_size = memo_size
        self._memo: "OrderedDict[str, dict]" = OrderedDict()
        self._inflight: dict[str, Job] = {}
        self.memo_hits = 0
        self.coalesced = 0

    def find_memo(self, key: str) -> Optional[dict]:
        payload = self._memo.get(key)
        if payload is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
        return payload

    def find_inflight(self, key: str) -> Optional[Job]:
        job = self._inflight.get(key)
        if job is not None:
            job.waiters += 1
            self.coalesced += 1
        return job

    def open(self, job: Job) -> None:
        """Register a job as the in-flight owner of its key."""
        self._inflight[job.key] = job

    def close(self, key: str, payload: Optional[dict] = None) -> None:
        """Retire an in-flight key, memoizing its payload on success."""
        self._inflight.pop(key, None)
        if payload is not None and self.memo_size:
            self._memo[key] = payload
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    @property
    def memo_count(self) -> int:
        return len(self._memo)


class BatchQueue:
    """A bounded job queue harvested in batches of what is already queued."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"queue maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue(maxsize)

    def put_nowait(self, job: Job) -> None:
        """Enqueue or raise :class:`asyncio.QueueFull` (the 429 signal)."""
        self._queue.put_nowait(job)

    def qsize(self) -> int:
        return self._queue.qsize()

    async def next_batch(self, max_batch: int) -> list[Job]:
        """Block for the first job, then take up to ``max_batch`` queued jobs.

        Never waits once a job is in hand: batch width comes from what
        built up while the caller was busy, not from a timer.
        """
        batch = [await self._queue.get()]
        while len(batch) < max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        return batch

    def take_all(self) -> list[Job]:
        """Empty the queue without waiting (the jobs a halted service abandons)."""
        jobs = []
        while not self._queue.empty():
            jobs.append(self._queue.get_nowait())
        return jobs

