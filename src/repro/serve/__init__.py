"""``repro.serve`` — the batch estimation service.

The paper's macro-model estimate is ~1000x cheaper than RTL power
simulation, which makes energy estimation viable as an *interactive
service*: a DSE loop, a CI job or many concurrent users hammering one
long-running process.  This package is that server-shaped entry point:

* :class:`EstimationService` — request coalescing by content address,
  load-adaptive batching (a free worker takes everything queued), a
  persistent pool of forked workers, each driven over its own pipe by
  the event loop, pre-warmed through the shared
  :class:`~repro.xtcore.compiled.CompilationCache`, bounded queues with
  ``429`` backpressure and :class:`RetryPolicy`-driven timeouts;
* :class:`EstimationServer` / :func:`run_server` — the stdlib-only
  asyncio HTTP transport (``repro serve`` on the command line);
* :class:`ServiceMetrics` — the ``/metrics`` registry, fed worker-side
  through the :mod:`repro.obs` observer protocol.

See ``docs/SERVING.md`` for the wire API and operational semantics.
"""

from .admission import DrainRateEstimator, retry_after_seconds
from .api import ApiError, EstimateRequest, ExploreRequest, parse_estimate, parse_explore
from .batching import BatchQueue, Coalescer, Job
from .metrics import LatencyWindow, ServiceMetrics, render_prometheus
from .pool import WorkerPool, run_estimate_batch, run_explore
from .server import EstimationServer, EstimationService, run_server
from .supervise import (
    QuarantineRegistry,
    RetryPolicy,
    WorkerCrashed,
    deadline_at,
    deadline_expired,
)

__all__ = [
    "ApiError",
    "BatchQueue",
    "Coalescer",
    "DrainRateEstimator",
    "EstimateRequest",
    "EstimationServer",
    "EstimationService",
    "ExploreRequest",
    "Job",
    "LatencyWindow",
    "QuarantineRegistry",
    "RetryPolicy",
    "ServiceMetrics",
    "WorkerCrashed",
    "WorkerPool",
    "deadline_at",
    "deadline_expired",
    "parse_estimate",
    "parse_explore",
    "render_prometheus",
    "retry_after_seconds",
    "run_estimate_batch",
    "run_explore",
    "run_server",
]
