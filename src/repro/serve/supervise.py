"""Self-healing primitives for the serving and parallel-evaluation stack.

A forked worker dying is not an exception at scale — it is the steady
state.  This module holds the small, reusable pieces the service composes
into a recovery story:

* :func:`is_pool_crash` — one predicate for "the executor is gone"
  covering real :class:`concurrent.futures.BrokenExecutor` process
  death and the chaos harness's :class:`InjectedWorkerCrash` (the
  inline-pool stand-in for ``os._exit`` in a forked child);
* :class:`QuarantineRegistry` — per-request-key crash accounting.  A
  request whose (bisected, singleton) batch keeps killing the pool is
  **poisoned**; after ``threshold`` isolated crashes it is quarantined
  and answered with a typed failure instead of crashing workers
  forever.  Keys that later succeed are exonerated;
* :class:`CircuitBreaker` — consecutive pool-crash counting with
  open/half-open/closed states.  While open the service degrades to
  inline single-threaded evaluation (the ``--workers 0`` path) instead
  of thrashing respawns; after ``cooldown`` seconds one probe batch is
  allowed back onto the pool;
* deadline helpers — client-supplied ``deadline_ms`` becomes an
  absolute :func:`time.monotonic` instant that flows through the batch
  queue into the worker call, so expired requests are shed before
  simulation, not after;
* :func:`execute_chaos_directive` — the worker-side half of the chaos
  harness: directives are *stamped by the parent* (deterministic,
  seeded — see :class:`repro.testing.faults.ServiceChaosPlan`) and
  executed here as a real ``os._exit`` / sleep in the worker.

Everything is transport-free and asyncio-free so the DSE engine can
reuse it unchanged.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from collections import OrderedDict
from typing import Callable, Optional

#: Item-dict key carrying a parent-stamped chaos directive to a worker.
CHAOS_KEY = "_chaos"

#: Item-dict key carrying the absolute monotonic deadline to a worker.
DEADLINE_KEY = "deadline"


class InjectedWorkerCrash(RuntimeError):
    """The inline-pool analog of a forked worker dying mid-batch.

    In fork mode the chaos harness calls ``os._exit`` in the child and
    the parent observes :class:`concurrent.futures.BrokenExecutor`; in
    inline (thread) mode killing the process would kill the test, so
    the directive raises this instead and the supervisor treats both
    identically (see :func:`is_pool_crash`).
    """


def is_pool_crash(exc: BaseException) -> bool:
    """True when ``exc`` means the worker pool died under a batch."""
    return isinstance(
        exc, (concurrent.futures.BrokenExecutor, InjectedWorkerCrash)
    )


# -- deadlines ---------------------------------------------------------------


def deadline_at(deadline_ms: Optional[int]) -> Optional[float]:
    """A client ``deadline_ms`` as an absolute monotonic instant."""
    if deadline_ms is None:
        return None
    return time.monotonic() + deadline_ms / 1e3


def deadline_expired(deadline: Optional[float]) -> bool:
    """Whether an absolute monotonic deadline has passed (None = never)."""
    return deadline is not None and time.monotonic() >= deadline


# -- quarantine --------------------------------------------------------------


class QuarantineRegistry:
    """Crash accounting that isolates poisoned requests.

    The supervisor bisects a crashed batch until a *singleton* batch
    crashes the pool; only those isolated crashes count against the
    key (a request that merely shared a batch with the poison is never
    blamed).  ``threshold`` isolated crashes quarantine the key; a
    success exonerates it.
    """

    def __init__(self, threshold: int = 2, max_entries: int = 1024) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.max_entries = max_entries
        self._crashes: "OrderedDict[str, int]" = OrderedDict()
        self._quarantined: "OrderedDict[str, str]" = OrderedDict()
        #: total keys ever quarantined (monotonic, survives eviction)
        self.total_quarantined = 0

    def record_crash(self, key: str, name: str = "?") -> bool:
        """Count one isolated crash; True when the key is now quarantined."""
        count = self._crashes.get(key, 0) + 1
        self._crashes[key] = count
        self._crashes.move_to_end(key)
        while len(self._crashes) > self.max_entries:
            self._crashes.popitem(last=False)
        if count >= self.threshold:
            if key not in self._quarantined:
                self.total_quarantined += 1
            self._quarantined[key] = name
            self._quarantined.move_to_end(key)
            while len(self._quarantined) > self.max_entries:
                self._quarantined.popitem(last=False)
            self._crashes.pop(key, None)
            return True
        return False

    def record_success(self, key: str) -> None:
        """Exonerate a key that completed normally."""
        self._crashes.pop(key, None)

    def is_quarantined(self, key: str) -> bool:
        return key in self._quarantined

    def release(self, key: str) -> bool:
        """Operator override: lift a quarantine (True if it was held)."""
        self._crashes.pop(key, None)
        return self._quarantined.pop(key, None) is not None

    @property
    def quarantined_count(self) -> int:
        return len(self._quarantined)

    def snapshot(self) -> dict:
        """The ``/metrics`` view: held keys (with names) and totals."""
        return {
            "threshold": self.threshold,
            "held": len(self._quarantined),
            "total_quarantined": self.total_quarantined,
            "keys": {key: name for key, name in self._quarantined.items()},
            "suspects": dict(self._crashes),
        }


# -- circuit breaker ---------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Numeric encoding for the Prometheus rendering.
BREAKER_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure breaker guarding the forked worker pool.

    ``failure_threshold`` consecutive pool crashes open the breaker;
    while open, :meth:`allows_pool` is False and callers should take
    the degraded (inline) path.  After ``cooldown`` seconds the state
    reads half-open: the pool may be probed again, and the probe's
    outcome closes the breaker or re-opens it for another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        #: times the breaker tripped open (monotonic counter)
        self.trips = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return BREAKER_CLOSED
        if self._clock() - self._opened_at >= self.cooldown:
            return BREAKER_HALF_OPEN
        return BREAKER_OPEN

    def allows_pool(self) -> bool:
        """Whether a batch may be dispatched to the real pool right now."""
        return self.state != BREAKER_OPEN

    def record_failure(self) -> bool:
        """Count one pool crash; True when this crash trips the breaker."""
        self._consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            # the probe failed: re-open for a fresh cooldown
            self._opened_at = self._clock()
            return False
        if (
            self._opened_at is None
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self._clock()
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        """A pool batch completed: close the breaker, reset the count."""
        self._consecutive_failures = 0
        self._opened_at = None

    def snapshot(self) -> dict:
        state = self.state
        payload = {
            "state": state,
            "consecutive_failures": self._consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "cooldown_seconds": self.cooldown,
            "trips": self.trips,
        }
        if self._opened_at is not None:
            payload["open_for_seconds"] = round(self._clock() - self._opened_at, 3)
        return payload


# -- worker-side chaos execution ---------------------------------------------


def execute_chaos_directive(directive: str, fork: bool) -> None:
    """Run one parent-stamped chaos directive inside a worker.

    ``crash``      — die the way a segfaulting/OOM-killed child does:
                     ``os._exit`` in fork mode (the parent sees
                     :class:`~concurrent.futures.process.BrokenProcessPool`),
                     :class:`InjectedWorkerCrash` in inline mode.
    ``hang:<s>``   — sleep ``s`` seconds mid-batch.  In fork mode the
                     supervisor's timeout + pool respawn kills the
                     wedged child; in inline mode the sleep is kept
                     short by the plan so the thread eventually drains.
    """
    if directive == "crash":
        if fork:
            os._exit(13)
        raise InjectedWorkerCrash("chaos: injected worker crash")
    if directive.startswith("hang:"):
        time.sleep(float(directive.split(":", 1)[1]))
        return
    raise ValueError(f"unknown chaos directive {directive!r}")
