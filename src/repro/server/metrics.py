"""Observability for the extraction service: counters and latency percentiles.

Follows the metric discipline of the benchmark suite (latency
percentiles, throughput counters, committed baselines): the server keeps
cheap in-memory counters plus a fixed-size ring buffer of recent
per-request latencies, and renders one JSON snapshot for the
``/metrics`` endpoint.  The ring buffer bounds the memory of a
long-lived process — percentiles describe the last ``capacity``
requests, which is what an operator watching a dashboard wants — and a
snapshot never walks more than ``capacity`` floats.

Everything is guarded by one lock: the server itself is a single-loop
asyncio process, but the benchmark harness and the in-process tests
read metrics from other threads, and a torn snapshot would produce
nonsense ratios.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.runtime.plan import PlanCache
from repro.runtime.resilience import RESILIENCE_METRICS
from repro.runtime.subset import generation_swaps

__all__ = ["LatencyRing", "ServerMetrics"]


class LatencyRing:
    """A fixed-capacity ring of recent latency samples (seconds).

    :meth:`percentile` uses the nearest-rank method on a sorted copy of
    the resident samples — exact for the ring's own contents, and at
    most ``capacity`` items to sort per snapshot.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._samples: list[float] = []
        self._next = 0
        self._recorded = 0

    def record(self, seconds: float) -> None:
        if len(self._samples) < self.capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
            self._next = (self._next + 1) % self.capacity
        self._recorded += 1

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def recorded(self) -> int:
        """Total samples ever recorded (including overwritten ones)."""
        return self._recorded

    def percentile(self, point: float) -> float:
        """The nearest-rank *point*-th percentile of the resident samples.

        Returns ``0.0`` on an empty ring (a ``/metrics`` poll before the
        first request must not fail).
        """
        if not 0 <= point <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {point}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, -(-point * len(ordered) // 100))  # ceil without floats
        return ordered[int(rank) - 1]

    def percentiles(self, points: Iterable[float] = (50.0, 99.0)) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}``-style snapshot of several points."""
        ordered = sorted(self._samples)
        out: dict[str, float] = {}
        for point in points:
            if not ordered:
                out[f"p{point:g}"] = 0.0
                continue
            rank = max(1, -(-point * len(ordered) // 100))
            out[f"p{point:g}"] = ordered[int(rank) - 1]
        return out


class ServerMetrics:
    """The service-wide counter set behind ``/metrics``.

    Counters cover the request surface (per endpoint and status class),
    the session lifecycle (opened / rejected / expired / failed, plus
    the live gauge), and the data plane (bytes fed, chunks fed,
    mappings emitted).  Per-request latency lands in a
    :class:`LatencyRing`; the plan cache is *not* owned here — the
    service passes its shared :class:`~repro.runtime.plan.PlanCache`
    into :meth:`snapshot` so cache counters always come straight from
    the source.
    """

    def __init__(self, *, latency_capacity: int = 1024) -> None:
        self._lock = threading.Lock()
        self._latency = LatencyRing(latency_capacity)
        self._requests_total = 0
        self._responses: dict[str, int] = {}
        self._sessions_opened = 0
        self._sessions_rejected = 0
        self._sessions_expired = 0
        self._sessions_failed = 0
        self._active_sessions = 0
        self._peak_active_sessions = 0
        self._bytes_fed = 0
        self._chunks_fed = 0
        self._mappings_emitted = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_request(self, status: int) -> None:
        """Count one finished HTTP exchange by status code."""
        with self._lock:
            self._requests_total += 1
            key = str(status)
            self._responses[key] = self._responses.get(key, 0) + 1

    def record_latency(self, seconds: float) -> None:
        with self._lock:
            self._latency.record(seconds)

    def session_opened(self) -> None:
        with self._lock:
            self._sessions_opened += 1
            self._active_sessions += 1
            if self._active_sessions > self._peak_active_sessions:
                self._peak_active_sessions = self._active_sessions

    def session_closed(self) -> None:
        with self._lock:
            self._active_sessions -= 1

    def session_rejected(self) -> None:
        with self._lock:
            self._sessions_rejected += 1

    def session_expired(self) -> None:
        with self._lock:
            self._sessions_expired += 1

    def session_failed(self) -> None:
        with self._lock:
            self._sessions_failed += 1

    def chunk_fed(self, num_bytes: int) -> None:
        with self._lock:
            self._chunks_fed += 1
            self._bytes_fed += num_bytes

    def mappings_emitted(self, count: int) -> None:
        with self._lock:
            self._mappings_emitted += count

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active_sessions

    def snapshot(self, plan_cache: PlanCache | None = None) -> dict:
        """The JSON document served by ``GET /metrics``."""
        with self._lock:
            latency = self._latency.percentiles((50.0, 99.0))
            payload: dict = {
                "requests_total": self._requests_total,
                "responses_by_status": dict(sorted(self._responses.items())),
                "sessions": {
                    "opened": self._sessions_opened,
                    "rejected": self._sessions_rejected,
                    "expired": self._sessions_expired,
                    "failed": self._sessions_failed,
                    "active": self._active_sessions,
                    "peak_active": self._peak_active_sessions,
                },
                "data": {
                    "bytes_fed": self._bytes_fed,
                    "chunks_fed": self._chunks_fed,
                    "mappings_emitted": self._mappings_emitted,
                },
                "latency_seconds": {
                    "p50": round(latency["p50"], 6),
                    "p99": round(latency["p99"], 6),
                    "samples": len(self._latency),
                    "recorded": self._latency.recorded,
                },
            }
        if plan_cache is not None:
            payload["plan_cache"] = plan_cache.stats().as_dict()
        # Fault-tolerance counters are process-wide: retries,
        # worker crashes, deadline misses, pool rebuilds, inline
        # fallbacks, quarantined documents and resource-budget trips,
        # whichever executor recorded them.
        payload["resilience"] = RESILIENCE_METRICS.snapshot()
        # Process-wide too: how often a lazily determinized automaton
        # passed SUBSET_CAP subsets and was replaced by a fresh one.
        payload["generation_swaps"] = generation_swaps()
        return payload
