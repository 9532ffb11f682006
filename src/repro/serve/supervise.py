"""Self-healing primitives for the estimation service.

A forked worker dying is not an exception at scale — it is the steady
state.  This module holds the small pieces the service composes into its
one recovery ladder for a pool crash — respawn, bisect, quarantine:

* :func:`is_pool_crash` — one predicate for "a worker died under a
  batch" covering :class:`WorkerCrashed` (a forked child's pipe reached
  EOF or was reset with a call outstanding) and the chaos harness's
  :class:`InjectedWorkerCrash` (the inline-pool stand-in for
  ``os._exit`` in a forked child);
* :class:`QuarantineRegistry` — per-request-key crash accounting.  A
  request whose (bisected, singleton) batch keeps killing the pool is
  **poisoned**; after ``threshold`` isolated crashes it is quarantined
  and answered with a typed failure instead of crashing workers
  forever.  Keys that later succeed are exonerated;
* :class:`RetryPolicy` — how many times a timed-out batch is retried,
  and on what instruction budget;
* deadline helpers — client-supplied ``deadline_ms`` becomes an
  absolute :func:`time.monotonic` instant that flows through the batch
  queue into the worker call, so expired requests are shed before
  simulation, not after;
* :func:`execute_chaos_directive` — the worker-side half of the chaos
  harness: directives are *stamped by the parent* (deterministic,
  seeded — see :class:`repro.testing.faults.ServiceChaosPlan`) and
  executed here as a real ``os._exit`` / sleep in the worker.

Everything is transport-free and asyncio-free, so each piece is unit
tested without a server or a pool.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import time
from collections import OrderedDict
from typing import Optional

#: Item-dict key carrying a parent-stamped chaos directive to a worker.
CHAOS_KEY = "_chaos"

#: Item-dict key carrying the absolute monotonic deadline to a worker.
DEADLINE_KEY = "deadline"


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a timed-out batch is retried before its jobs get a 504.

    ``max_attempts`` bounds total attempts per batch (1 = no retries).
    On each retry the instruction budget is multiplied by
    ``budget_factor``, so a deterministically hanging program (budget
    exhaustion) fails fast instead of paying the full budget again, while
    a worker that was merely wedged gets a real second chance.
    """

    max_attempts: int = 2
    budget_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 < self.budget_factor <= 1.0:
            raise ValueError(
                f"budget_factor must be in (0, 1], got {self.budget_factor}"
            )

    def budget_for(self, attempt: int, base_budget: int) -> int:
        """Instruction budget for 1-indexed ``attempt``."""
        return max(1, int(base_budget * self.budget_factor ** (attempt - 1)))


class WorkerCrashed(concurrent.futures.BrokenExecutor):
    """A forked worker died with a call outstanding.

    Raised by the pool when a child's pipe reaches EOF or is reset (the
    child exited, was killed, or crashed) before the reply arrived.
    """


class InjectedWorkerCrash(RuntimeError):
    """The inline-pool analog of a forked worker dying mid-batch.

    In fork mode the chaos harness calls ``os._exit`` in the child and
    the parent observes :class:`WorkerCrashed` on the child's pipe; in
    inline (thread) mode killing the process would kill the test, so
    the directive raises this instead and the supervisor treats both
    identically (see :func:`is_pool_crash`).
    """


def is_pool_crash(exc: BaseException) -> bool:
    """True when ``exc`` means a worker died under a batch.

    :class:`WorkerCrashed` is a :class:`concurrent.futures.BrokenExecutor`,
    so any broken executor counts.
    """
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

    def is_suspect(self, key: str) -> bool:
        """Whether ``key`` has crash strikes but is not (yet) quarantined."""
        return key in self._crashes

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


# -- worker-side chaos execution ---------------------------------------------


def execute_chaos_directive(directive: str, fork: bool) -> None:
    """Run one parent-stamped chaos directive inside a worker.

    ``crash``      — die the way a segfaulting/OOM-killed child does:
                     ``os._exit`` in fork mode (the parent reads EOF on
                     the child's pipe and sees :class:`WorkerCrashed`),
                     :class:`InjectedWorkerCrash` in inline mode.
    ``hang:<s>``   — sleep ``s`` seconds mid-batch.  In fork mode the
                     supervisor's timeout abandons the call, which kills
                     and replaces the wedged child; in inline mode the
                     sleep is kept short by the plan so the thread
                     eventually drains.
    """
    if directive == "crash":
        if fork:
            os._exit(13)
        raise InjectedWorkerCrash("chaos: injected worker crash")
    if directive.startswith("hang:"):
        time.sleep(float(directive.split(":", 1)[1]))
        return
    raise ValueError(f"unknown chaos directive {directive!r}")
