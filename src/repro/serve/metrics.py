"""Service observability: counters, latency percentiles, cache rates.

Three layers feed ``GET /metrics``:

* **request accounting** in the event loop — totals per endpoint and
  outcome, duplicate suppression (coalesced vs. memo), backpressure
  rejections, timeouts, queue depth;
* **latency windows** — bounded reservoirs of recent request latencies
  per endpoint, reduced to p50/p95/mean on demand, plus the **queue
  wait** of every dispatched job (enqueue → batch dispatch), so a slow
  miss splits into time spent waiting for a worker and time spent in
  one, and the **fork IPC** of every batch: its pool round trip, the
  worker's own time inside it, and the difference, the time the batch
  spent in transport (pickling, the pipe, waking the event loop);
* **simulation tallies** — a :class:`~repro.obs.tally.RunTallyObserver`
  rides along every worker-side estimate; workers ship its
  ``snapshot()`` back with their results and the parent merges them, so
  instruction/cycle throughput is exact even though simulations happen
  in forked children.

Everything renders twice: a JSON payload (the default, what smoke tests
assert against) and a Prometheus text exposition (``?format=prom``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional

from ..obs.tally import RunTallyObserver


class LatencyWindow:
    """A bounded reservoir of recent latencies with percentile reduction."""

    def __init__(self, maxlen: int = 2048) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)
        self.count = 0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) over the window."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> dict:
        samples = list(self._samples)
        mean = sum(samples) / len(samples) if samples else 0.0
        return {
            "count": self.count,
            "window": len(samples),
            "mean_ms": mean * 1e3,
            "p50_ms": self.percentile(50) * 1e3,
            "p95_ms": self.percentile(95) * 1e3,
        }


class ServiceMetrics:
    """The service-wide metrics registry behind ``/healthz`` and ``/metrics``."""

    COUNTERS = (
        "requests_total",
        "estimate_requests",
        "explore_requests",
        "responses_ok",
        "responses_error",
        "coalesced_total",
        "memo_hits_total",
        "rejected_total",
        "timeouts_total",
        "retries_total",
        "batches_dispatched",
        "batched_requests",
        "failures_total",
        # -- supervision / self-healing (see repro.serve.supervise) --------
        "pool_restarts_total",
        "worker_crashes_total",
        "worker_hangs_total",
        "quarantined_total",
        "quarantine_rejections_total",
        "deadline_shed_total",
        "drain_rejected_total",
        "chaos_injected_total",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.counters: dict[str, int] = {name: 0 for name in self.COUNTERS}
        self.queue_depth = 0
        self.inflight = 0
        self.latency = {"estimate": LatencyWindow(), "explore": LatencyWindow()}
        self.queue_wait = LatencyWindow()
        #: per batch: pool round trip, the worker's own time, and their
        #: difference (the transport)
        self.fork_ipc = {
            "round_trip": LatencyWindow(),
            "worker": LatencyWindow(),
            "ipc": LatencyWindow(),
        }
        self.sim_tally = RunTallyObserver()
        #: requests per operating-point key ("fit-point" = no point given)
        self.operating_points: dict[str, int] = {}

    # -- mutation ----------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: int) -> None:
        with self._lock:
            setattr(self, name, value)

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            self.latency[endpoint].record(seconds)

    def observe_queue_wait(self, waits: list[float]) -> None:
        """Record how long each job of one dispatched batch sat queued."""
        with self._lock:
            for seconds in waits:
                self.queue_wait.record(seconds)

    def observe_round_trip(self, seconds: float, worker_seconds: float) -> None:
        """Record one batch's pool round trip and the worker's time in it."""
        with self._lock:
            self.fork_ipc["round_trip"].record(seconds)
            self.fork_ipc["worker"].record(worker_seconds)
            self.fork_ipc["ipc"].record(seconds - worker_seconds)

    def observe_operating_point(self, point: Optional[str]) -> None:
        """Count one request against its operating point."""
        label = point if point is not None else "fit-point"
        with self._lock:
            self.operating_points[label] = self.operating_points.get(label, 0) + 1

    def merge_sim_snapshot(self, snapshot: dict) -> None:
        """Fold a worker-side :class:`RunTallyObserver` snapshot in."""
        with self._lock:
            self.sim_tally.merge(snapshot)

    # -- derived -----------------------------------------------------------

    @property
    def duplicates_merged(self) -> int:
        """Requests answered without a fresh simulation (coalesced or memo).

        The serve smoke asserts on this: two duplicate requests must
        merge no matter whether the second arrived while the first was
        in flight (coalesced) or after it completed (memo hit).
        """
        with self._lock:
            return (
                self.counters["coalesced_total"] + self.counters["memo_hits_total"]
            )

    def to_payload(
        self,
        compilation_cache: Optional[dict] = None,
        supervision: Optional[dict] = None,
        admission: Optional[dict] = None,
    ) -> dict:
        with self._lock:
            payload = {
                "uptime_seconds": time.time() - self.started_at,
                "counters": dict(self.counters),
                "queue_depth": self.queue_depth,
                "inflight": self.inflight,
                "latency": {
                    name: window.snapshot() for name, window in self.latency.items()
                },
                "queue_wait": self.queue_wait.snapshot(),
                "fork_ipc": {
                    name: window.snapshot() for name, window in self.fork_ipc.items()
                },
                "simulation": self.sim_tally.snapshot(),
                "operating_points": dict(self.operating_points),
            }
        payload["counters"]["duplicates_merged"] = (
            payload["counters"]["coalesced_total"]
            + payload["counters"]["memo_hits_total"]
        )
        caches: dict = {}
        if compilation_cache is not None:
            hits = compilation_cache.get("hits", 0)
            misses = compilation_cache.get("misses", 0)
            total = hits + misses
            caches["compilation"] = {
                **compilation_cache,
                "hit_rate": (hits / total) if total else 0.0,
            }
        payload["caches"] = caches
        if supervision is not None:
            payload["supervision"] = supervision
        if admission is not None:
            payload["admission"] = admission
        return payload


def render_prometheus(payload: dict) -> str:
    """Flatten a :meth:`ServiceMetrics.to_payload` dict to Prometheus text."""
    lines: list[str] = []

    def emit(name: str, value: float, labels: str = "") -> None:
        if isinstance(value, float):
            lines.append(f"repro_serve_{name}{labels} {value:.6g}")
        else:
            lines.append(f"repro_serve_{name}{labels} {value}")

    emit("uptime_seconds", payload["uptime_seconds"])
    for name, value in sorted(payload["counters"].items()):
        emit(name, value)
    emit("queue_depth", payload["queue_depth"])
    emit("inflight", payload["inflight"])
    for endpoint, window in sorted(payload["latency"].items()):
        labels = f'{{endpoint="{endpoint}"}}'
        emit("latency_requests", window["count"], labels)
        emit("latency_p50_ms", window["p50_ms"], labels)
        emit("latency_p95_ms", window["p95_ms"], labels)
        emit("latency_mean_ms", window["mean_ms"], labels)
    queue_wait = payload["queue_wait"]
    emit("queue_wait_jobs", queue_wait["count"])
    emit("queue_wait_p50_ms", queue_wait["p50_ms"])
    emit("queue_wait_p95_ms", queue_wait["p95_ms"])
    emit("queue_wait_mean_ms", queue_wait["mean_ms"])
    for part, window in sorted(payload["fork_ipc"].items()):
        labels = f'{{part="{part}"}}'
        emit("fork_ipc_batches", window["count"], labels)
        emit("fork_ipc_p50_ms", window["p50_ms"], labels)
        emit("fork_ipc_p95_ms", window["p95_ms"], labels)
        emit("fork_ipc_mean_ms", window["mean_ms"], labels)
    for name, value in sorted(payload["simulation"].items()):
        emit(f"sim_{name}", value)
    for point, count in sorted(payload.get("operating_points", {}).items()):
        emit("operating_point_requests", count, f'{{point="{point}"}}')
    for cache_name, info in sorted(payload.get("caches", {}).items()):
        labels = f'{{cache="{cache_name}"}}'
        for field in ("hits", "misses", "hit_rate", "entries", "evictions"):
            if field in info:
                emit(f"cache_{field}", info[field], labels)
        # per-tier breakdown (compilation cache: ops lowerings vs design-point builds)
        for tier_name, tier in sorted(info.get("tiers", {}).items()):
            tier_labels = f'{{cache="{cache_name}",tier="{tier_name}"}}'
            for field in ("hits", "misses", "entries", "compilations", "evictions"):
                if field in tier:
                    emit(f"cache_tier_{field}", tier[field], tier_labels)
    admission = payload.get("admission")
    if admission:
        emit("admission_queue_depth", admission.get("queue_depth", 0))
        emit("admission_queue_limit", admission.get("queue_limit", 0))
        emit("admission_retry_after_seconds", admission.get("retry_after_s", 0))
        drain = admission.get("drain", {})
        if "rate_per_s" in drain:
            emit("admission_drain_rate", drain["rate_per_s"])
        explore_drain = admission.get("explore_drain", {})
        if "rate_per_s" in explore_drain:
            emit("admission_explore_drain_rate", explore_drain["rate_per_s"])
    supervision = payload.get("supervision")
    if supervision:
        quarantine = supervision.get("quarantine", {})
        if "held" in quarantine:
            emit("quarantine_held", quarantine["held"])
        pool = supervision.get("pool", {})
        for field in ("restarts", "generation"):
            if field in pool:
                emit(f"pool_{field}", pool[field])
    return "\n".join(lines) + "\n"
