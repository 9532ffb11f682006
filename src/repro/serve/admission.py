"""Admission control primitives: drain-rate estimation, computed backoff.

Backpressure is only useful when the client knows *how long* to back
off.  A constant ``Retry-After: 1`` under-waits a deep queue (the client
burns attempts re-hitting a still-full service) and over-waits an almost
empty one.  This module derives the hint from observed behavior instead:

* :class:`DrainRateEstimator` — an exponentially-decayed rate estimate
  (the load-average shape) of how many requests per second the service
  actually completes.  Each completed batch folds an impulse of
  ``n / tau`` into the rate after decaying by ``exp(-dt / tau)``, so a
  steady workload converges on its true completion rate and an idle
  service decays toward zero;
* :func:`retry_after_seconds` — the ``Retry-After`` value for a queue
  of ``depth`` entries draining at ``rate``/s: the time until the queue
  has room, clamped to ``[1, cap]`` whole seconds, with a conservative
  cold-start default while no drain has been observed yet.

:class:`~repro.serve.server.EstimationService` computes every ``429``
and ``503`` ``Retry-After`` hint from these pieces, for estimates and
explorations alike.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

#: Retry-After while the drain rate is still unknown (cold start).
COLD_START_RETRY_AFTER = 2

#: Upper bound on any computed Retry-After hint, in seconds.
MAX_RETRY_AFTER = 60


class DrainRateEstimator:
    """Exponentially-decayed completions-per-second estimate.

    ``tau`` is the averaging time constant in seconds: the estimate
    forgets ~63% of its history every ``tau`` seconds.  The update rule

        rate <- rate * exp(-dt / tau) + n / tau

    makes a Poisson stream of events at rate ``lam`` converge on
    ``rate == lam`` while staying O(1) in space and time.  Thread-safe:
    batch completions land from the event loop, reads may come from a
    metrics scrape on another thread.
    """

    def __init__(
        self,
        tau: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = tau
        self._clock = clock
        self._lock = threading.Lock()
        self._rate = 0.0
        self._updated = self._clock()
        #: total completions ever recorded (monotonic counter)
        self.completions = 0

    def _decayed(self, now: float) -> float:
        dt = max(0.0, now - self._updated)
        if dt == 0.0:
            return self._rate
        return self._rate * math.exp(-dt / self.tau)

    def record(self, completed: int = 1) -> None:
        """Fold ``completed`` just-finished requests into the estimate."""
        if completed <= 0:
            return
        now = self._clock()
        with self._lock:
            self._rate = self._decayed(now) + completed / self.tau
            self._updated = now
            self.completions += completed

    @property
    def rate(self) -> float:
        """Current completions/second, decayed to *now*."""
        now = self._clock()
        with self._lock:
            return self._decayed(now)

    def snapshot(self) -> dict:
        return {
            "rate_per_s": round(self.rate, 4),
            "tau_seconds": self.tau,
            "completions": self.completions,
        }


def retry_after_seconds(
    depth: int,
    rate: float,
    cap: int = MAX_RETRY_AFTER,
    cold_start: int = COLD_START_RETRY_AFTER,
) -> int:
    """Whole seconds a client should wait for ``depth`` items to drain.

    ``rate`` is the observed drain rate (requests/second).  While the
    rate is effectively zero — a cold service, or one that has been idle
    long enough for the estimate to decay away — the hint falls back to
    ``cold_start`` rather than claiming the queue will never drain.
    The result is always in ``[1, cap]``: HTTP Retry-After is in whole
    seconds and sub-second waits round up to keep the hint honest.
    """
    if depth <= 0:
        return 1
    if rate <= 1e-9:
        return max(1, min(cap, cold_start))
    return max(1, min(cap, math.ceil(depth / rate)))
