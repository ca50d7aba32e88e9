"""Server-side observability for :mod:`repro.serve`.

One :class:`ServerMetrics` instance lives on the server state and is mutated
only from the event-loop thread.  Since PR 8 it is a *view* over a shared
:class:`repro.obs.metrics.MetricsRegistry` rather than a pile of ad-hoc dict
counters: every ``record_*`` call increments a named registry series, the
``GET /v1/stats`` JSON snapshot reads those series back, and
``GET /v1/metrics`` renders the very same registry as Prometheus text — the
two endpoints cannot drift apart.  The server passes its registry to its
:class:`~repro.lab.cache.ResultCache`, so cache get/put latency histograms
land in the same exposition.

What the ``/v1/stats`` contract promises:

* **cache memo effectiveness** — hits vs. misses across simulate /
  expected-output requests and job cells, plus the derived hit rate (this is
  the number that tells an operator the memo is actually absorbing repeat
  traffic);
* **per-engine demand** — how many requests *named* each engine vs. how many
  actually *executed* on it (requests minus executed = requests the cache
  absorbed);
* **latency percentiles** — p50/p90/p99 and mean per endpoint over a bounded
  sliding window (:class:`LatencyWindow`, which also reports its lifetime
  ``total_count`` so long-running servers don't under-report traffic), so a
  hot cache path and a cold simulate path are visible as separate
  distributions.  Percentile windows are not a Prometheus-native shape; the
  registry carries a parallel latency *histogram* for scraping;
* **job lifecycle counters** — submitted / completed / cancelled / failed /
  rejected (backpressure 429s), and cell-level executed vs. from-cache.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.obs.metrics import MetricsRegistry

#: The job-lifecycle events /v1/stats always reports, even at zero.
JOB_EVENTS = (
    "submitted",
    "completed",
    "cancelled",
    "failed",
    "rejected",
    "cells_executed",
    "cells_from_cache",
)


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted nonempty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence is undefined")
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return float(sorted_values[rank])


class LatencyWindow:
    """A bounded sliding window of request durations (seconds).

    ``count``/``total`` are lifetime aggregates; the deque keeps only the
    last ``size`` samples for the percentile view, so after wrap-around
    ``snapshot_ms()['window'] < snapshot_ms()['total_count']``.
    """

    def __init__(self, size: int = 512) -> None:
        self._samples: Deque[float] = deque(maxlen=size)
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))
        self.count += 1
        self.total += float(seconds)

    def snapshot_ms(self) -> Dict[str, float]:
        """Percentiles (in milliseconds) over the current window.

        ``window`` is the number of samples the percentiles were computed
        from; ``total_count`` is the lifetime number of recordings (they
        diverge once the window wraps).  Empty windows return ``{}``.
        """
        window = sorted(self._samples)
        if not window:
            return {}
        return {
            "p50_ms": round(percentile(window, 0.50) * 1000, 3),
            "p90_ms": round(percentile(window, 0.90) * 1000, 3),
            "p99_ms": round(percentile(window, 0.99) * 1000, 3),
            "mean_ms": round(sum(window) / len(window) * 1000, 3),
            "window": len(window),
            "total_count": self.count,
        }


class ServerMetrics:
    """All counters behind ``GET /v1/stats`` and ``GET /v1/metrics``.

    Mutation happens on the event-loop thread only; the registry's own lock
    additionally makes cross-thread reads (tests, the cache's worker-side
    updates) safe.  Each instance owns a private registry unless one is
    passed in, so parallel test servers never cross-count.
    """

    def __init__(
        self,
        latency_window: int = 512,
        registry: Optional[MetricsRegistry] = None,
        version: str = "",
    ) -> None:
        self.started_at = time.time()
        self.version = version
        self._latency_window = latency_window
        self.registry = registry if registry is not None else MetricsRegistry()
        self.latencies: Dict[str, LatencyWindow] = {}

        self._requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint template and status code.",
            labels=("endpoint", "status"),
        )
        self._request_seconds = self.registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency, by endpoint template.",
            labels=("endpoint",),
        )
        self._cache = self.registry.counter(
            "repro_cache_requests_total",
            "Server-side memo lookups, by result (hit/miss).",
            labels=("result",),
        )
        self._engine_requests = self.registry.counter(
            "repro_engine_requests_total",
            "Requests that named each engine (before the cache absorbed any).",
            labels=("engine",),
        )
        self._engine_executed = self.registry.counter(
            "repro_engine_executed_total",
            "Simulations that actually executed on each engine.",
            labels=("engine",),
        )
        self._jobs = self.registry.counter(
            "repro_job_events_total",
            "Job lifecycle events (submitted/completed/cancelled/failed/"
            "rejected) and cell outcomes (cells_executed/cells_from_cache).",
            labels=("event",),
        )
        self._uptime = self.registry.gauge(
            "repro_server_uptime_seconds", "Seconds since the server booted."
        )
        # Pre-touch the series /v1/stats always reports, so a fresh server
        # exposes them at zero instead of omitting them.
        self._cache.labels(result="hit").inc(0)
        self._cache.labels(result="miss").inc(0)
        for event in JOB_EVENTS:
            self._jobs.labels(event=event).inc(0)

    # -- recording --------------------------------------------------------------

    def record_request(self, endpoint: str, status: int, seconds: float) -> None:
        self._requests.labels(endpoint=endpoint, status=str(int(status))).inc()
        self._request_seconds.labels(endpoint=endpoint).observe(seconds)
        self.latencies.setdefault(
            endpoint, LatencyWindow(self._latency_window)
        ).record(seconds)

    def record_cache(self, hit: bool, count: int = 1) -> None:
        self._cache.labels(result="hit" if hit else "miss").inc(count)

    def record_engine_request(self, engine: str) -> None:
        self._engine_requests.labels(engine=str(engine)).inc()
        self._engine_executed.labels(engine=str(engine)).inc(0)

    def record_engine_executed(self, engine: str) -> None:
        self._engine_requests.labels(engine=str(engine)).inc(0)
        self._engine_executed.labels(engine=str(engine)).inc(0)
        self._engine_executed.labels(engine=str(engine)).inc()

    def record_job_event(self, event: str, count: int = 1) -> None:
        self._jobs.labels(event=str(event)).inc(count)

    # -- reporting --------------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return int(self._cache.value_of(("hit",)))

    @property
    def cache_misses(self) -> int:
        return int(self._cache.value_of(("miss",)))

    @property
    def cache_hit_rate(self) -> Optional[float]:
        total = self.cache_hits + self.cache_misses
        return (self.cache_hits / total) if total else None

    def touch(self) -> None:
        """Refresh derived gauges (uptime) before a registry render."""
        self._uptime.set(round(time.time() - self.started_at, 3))

    def snapshot(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload body (JSON-serializable, stable keys).

        Everything here is read back *from the registry*, so this JSON view
        and the Prometheus text of ``GET /v1/metrics`` can never disagree.
        """
        requests: Dict[str, Dict[str, Any]] = {}
        for (endpoint, status), value in sorted(self._requests.series().items()):
            entry = requests.setdefault(endpoint, {"count": 0, "by_status": {}})
            entry["count"] += int(value)
            entry["by_status"][status] = entry["by_status"].get(status, 0) + int(value)
        for endpoint, entry in requests.items():
            window = self.latencies.get(endpoint)
            entry["latency"] = window.snapshot_ms() if window is not None else {}

        engines: Dict[str, Dict[str, int]] = {}
        for (engine,), value in self._engine_requests.series().items():
            engines.setdefault(engine, {"requests": 0, "executed": 0})["requests"] = int(value)
        for (engine,), value in self._engine_executed.series().items():
            engines.setdefault(engine, {"requests": 0, "executed": 0})["executed"] = int(value)

        jobs = {event: int(self._jobs.value_of((event,))) for event in JOB_EVENTS}
        for (event,), value in self._jobs.series().items():
            jobs[event] = int(value)

        uptime = round(time.time() - self.started_at, 3)
        hit_rate = self.cache_hit_rate
        snapshot: Dict[str, Any] = {
            "uptime_seconds": uptime,
            "uptime_s": uptime,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(hit_rate, 6) if hit_rate is not None else None,
            },
            "engines": engines,
            "requests": requests,
            "jobs": jobs,
        }
        if self.version:
            snapshot["version"] = self.version
        return snapshot
