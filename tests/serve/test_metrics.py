"""Latency windows, the metrics registry, and Prometheus rendering."""

from __future__ import annotations

from repro.serve import LatencyWindow, ServiceMetrics, render_prometheus


class TestLatencyWindow:
    def test_empty_window_is_zero(self):
        window = LatencyWindow()
        assert window.percentile(50) == 0.0
        assert window.snapshot()["p95_ms"] == 0.0

    def test_percentiles(self):
        window = LatencyWindow()
        for ms in range(1, 101):  # 1..100 ms
            window.record(ms / 1e3)
        snap = window.snapshot()
        assert 45 <= snap["p50_ms"] <= 55
        assert 90 <= snap["p95_ms"] <= 100
        assert snap["count"] == 100

    def test_bounded_reservoir(self):
        window = LatencyWindow(maxlen=8)
        for _ in range(100):
            window.record(0.001)
        assert window.snapshot()["window"] == 8
        assert window.count == 100


class TestServiceMetrics:
    def test_duplicates_merged_combines_sources(self):
        metrics = ServiceMetrics()
        metrics.incr("coalesced_total", 2)
        metrics.incr("memo_hits_total", 3)
        assert metrics.duplicates_merged == 5
        payload = metrics.to_payload()
        assert payload["counters"]["duplicates_merged"] == 5
        assert "disk_cache_hits_total" not in payload["counters"]

    def test_payload_shape_and_cache_rates(self):
        metrics = ServiceMetrics()
        metrics.observe_latency("estimate", 0.002)
        metrics.merge_sim_snapshot({"runs_finished": 4, "instructions": 100})
        payload = metrics.to_payload(compilation_cache={"hits": 3, "misses": 1})
        assert payload["caches"]["compilation"]["hit_rate"] == 0.75
        assert list(payload["caches"]) == ["compilation"]
        assert payload["simulation"]["runs_finished"] == 4
        assert payload["latency"]["estimate"]["count"] == 1

    def test_prometheus_rendering(self):
        metrics = ServiceMetrics()
        metrics.incr("requests_total", 7)
        metrics.observe_latency("estimate", 0.010)
        text = render_prometheus(
            metrics.to_payload(compilation_cache={"hits": 1, "misses": 1})
        )
        assert "repro_serve_requests_total 7" in text
        assert 'repro_serve_latency_p50_ms{endpoint="estimate"} 10' in text
        assert 'repro_serve_cache_hit_rate{cache="compilation"} 0.5' in text
        assert 'cache="results"' not in text
        assert text.endswith("\n")
