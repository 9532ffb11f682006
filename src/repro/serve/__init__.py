"""``repro.serve`` — the batch estimation service.

The paper's macro-model estimate is ~1000x cheaper than RTL power
simulation, which makes energy estimation viable as an *interactive
service*: a DSE loop, a CI job or many concurrent users hammering one
long-running process.  This package is that server-shaped entry point:

* :class:`EstimationService` — request coalescing by content address,
  windowed batching, a persistent fork-based worker pool pre-warmed
  through the shared :class:`~repro.xtcore.compiled.CompilationCache`,
  the DSE :class:`~repro.dse.cache.ResultCache` as a shared on-disk
  result store, bounded queues with ``429`` backpressure and
  :class:`~repro.core.runner.RetryPolicy`-driven timeouts;
* :class:`EstimationServer` / :func:`run_server` — the stdlib-only
  asyncio HTTP transport (``repro serve`` on the command line);
* :class:`ServiceMetrics` — the ``/metrics`` registry, fed worker-side
  through the :mod:`repro.obs` observer protocol.

See ``docs/SERVING.md`` for the wire API and operational semantics.
"""

from .admission import DrainRateEstimator, retry_after_seconds
from .api import ApiError, EstimateRequest, ExploreRequest, parse_estimate, parse_explore
from .batching import BatchQueue, Coalescer, Job, partition_compatible
from .metrics import LatencyWindow, ServiceMetrics, render_prometheus
from .pool import WorkerPool, run_estimate_batch, run_explore
from .server import EstimationServer, EstimationService, run_server
from .supervise import (
    CircuitBreaker,
    InjectedWorkerCrash,
    QuarantineRegistry,
    deadline_at,
    deadline_expired,
    is_pool_crash,
)

__all__ = [
    "ApiError",
    "BatchQueue",
    "CircuitBreaker",
    "Coalescer",
    "DrainRateEstimator",
    "EstimateRequest",
    "EstimationServer",
    "EstimationService",
    "ExploreRequest",
    "InjectedWorkerCrash",
    "Job",
    "LatencyWindow",
    "QuarantineRegistry",
    "ServiceMetrics",
    "WorkerPool",
    "deadline_at",
    "deadline_expired",
    "is_pool_crash",
    "parse_estimate",
    "parse_explore",
    "partition_compatible",
    "render_prometheus",
    "retry_after_seconds",
    "run_estimate_batch",
    "run_explore",
    "run_server",
]
