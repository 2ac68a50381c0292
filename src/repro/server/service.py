"""The multi-tenant extraction service behind ``repro serve``.

:class:`SpannerService` owns everything the HTTP front-end
(:mod:`repro.server.http`) must not: the **shared plan cache** (one
:class:`~repro.runtime.plan.PlanCache` mapping each pattern to its one
compiled :class:`~repro.spanners.Spanner`, so concurrent sessions over
the same pattern compile once and every repeat request is a cache hit,
whatever alphabet it declares), **admission control** (a hard cap on
concurrent sessions plus a per-session fed-bytes cap), and the
:class:`~repro.server.metrics.ServerMetrics` counters.

A :class:`Session` wraps one per-connection
:class:`~repro.runtime.streaming.StreamingEvaluator`: ``feed()`` text as
the transport delivers it, ``finish()`` at end of stream, ``close()``
always (idempotent — it releases the admission slot).  Sessions hold a
strong reference to their cache entry, so plan-cache eviction under
pressure never corrupts an in-flight session: the evicted entry lives on
until its last session closes, and the next request for that pattern
recompiles a fresh one.

The service is transport-agnostic and synchronous; the asyncio layer
decides where the await-points go (between chunks, before writes).  All
shared structures are thread-safe regardless, because the benchmark
harness and tests poke at them from other threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.core.errors import ReproError, ResourceLimitError
from repro.core.mappings import Mapping
from repro.runtime.plan import CacheStats, PlanCache
from repro.runtime.resilience import RESILIENCE_METRICS
from repro.runtime.streaming import StreamedResult, StreamingEvaluator
from repro.server.metrics import ServerMetrics
from repro.server.protocol import OpenRequest
from repro.spanners.spanner import Spanner

__all__ = [
    "AdmissionError",
    "DEFAULT_SERVE_ALPHABET",
    "ServerConfig",
    "Session",
    "SessionLimitError",
    "SpannerService",
]

#: The default declared alphabet of a session that does not send one:
#: printable ASCII plus the usual whitespace, matching ``repro stream``.
DEFAULT_SERVE_ALPHABET = "".join(chr(point) for point in range(32, 127)) + "\t\n\r"


class AdmissionError(ReproError):
    """Raised when the session cap is reached; maps to HTTP 429."""

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SessionLimitError(ReproError):
    """Raised when a session exceeds its per-session fed-bytes cap."""


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of the extraction service (CLI flags mirror these)."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: Hard cap on concurrently open sessions; past it, opens get 429.
    max_sessions: int = 64
    #: Bound of the shared pattern → compiled-plan cache.
    plan_cache_size: int = 32
    #: Per-session cap on fed document bytes (UTF-8); 0 disables the cap.
    max_session_bytes: int = 64 * 1024 * 1024
    #: Per-session cap on live arena cells; 0 disables the cap.  Trips
    #: as :class:`~repro.core.errors.ResourceLimitError` *before* the
    #: arena of a pathological pattern×document pair can exhaust the
    #: server's memory — the fed-bytes cap alone cannot see this, since
    #: arena growth is not proportional to input size.
    max_session_arena_cells: int = 0
    #: Seconds a session may sit idle between events before it is closed.
    idle_timeout: float = 30.0
    #: Capacity of the per-request latency ring behind ``/metrics``.
    latency_capacity: int = 1024
    #: Alphabet of sessions that do not declare one (accepted for
    #: compatibility; every alphabet shares the pattern's compilation).
    default_alphabet: str = DEFAULT_SERVE_ALPHABET

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be positive, got {self.max_sessions}")
        if self.plan_cache_size < 1:
            raise ValueError(
                f"plan_cache_size must be positive, got {self.plan_cache_size}"
            )
        if self.max_session_bytes < 0:
            raise ValueError(
                f"max_session_bytes must be >= 0, got {self.max_session_bytes}"
            )
        if self.max_session_arena_cells < 0:
            raise ValueError(
                "max_session_arena_cells must be >= 0, got "
                f"{self.max_session_arena_cells}"
            )
        if self.idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {self.idle_timeout}")


@dataclass
class PlanEntry:
    """One shared-cache entry: a compiled spanner plus its metadata."""

    pattern: str
    spanner: Spanner
    variables: tuple[str, ...]
    sessions_served: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def open_evaluator(self, emit: str) -> StreamingEvaluator:
        with self._lock:
            self.sessions_served += 1
        # Each session gets a private evaluator: settled
        # mappings are delivered through feed(), so nothing needs to be
        # retained for a finish()-time replay.
        return self.spanner.stream(emit=emit, retain_settled=False)


class Session:
    """One client's chunk-fed evaluation, admission slot included."""

    def __init__(
        self,
        service: "SpannerService",
        session_id: int,
        entry: PlanEntry,
        request: OpenRequest,
        cache_outcome: str,
    ) -> None:
        self._service = service
        self.session_id = session_id
        self.entry = entry
        self.emit = request.emit
        self.cache_outcome = cache_outcome  # "hit" | "miss"
        self.opened_at = time.monotonic()
        self.bytes_fed = 0
        self.mappings_delivered = 0
        self._evaluator = entry.open_evaluator(request.emit)
        self._closed = False
        self._finished = False

    @property
    def variables(self) -> tuple[str, ...]:
        return self.entry.variables

    @property
    def position(self) -> int:
        return self._evaluator.position

    def feed(self, text: str) -> list[Mapping]:
        """Feed one decoded chunk; returns the mappings it settled.

        Raises :class:`SessionLimitError` past the fed-bytes cap,
        :class:`~repro.core.errors.ResourceLimitError` past the
        arena-cell cap, and whatever the evaluator raises on protocol
        violations (e.g. a str chunk inside a pending UTF-8 sequence).
        """
        cap = self._service.config.max_session_bytes
        size = len(text.encode("utf-8"))
        if cap and self.bytes_fed + size > cap:
            raise SessionLimitError(
                f"session {self.session_id} exceeded the per-session cap of "
                f"{cap} fed bytes ({self.bytes_fed} fed so far, chunk of "
                f"{size}); split the work across sessions or raise "
                "--max-session-bytes"
            )
        delivered = self._evaluator.feed(text)
        cell_cap = self._service.config.max_session_arena_cells
        if cell_cap:
            cells = self._evaluator.arena_cells()
            if cells > cell_cap:
                RESILIENCE_METRICS.add("resource_limit_trips")
                raise ResourceLimitError(
                    f"session {self.session_id} exceeded the per-session cap "
                    f"of {cell_cap} arena cells ({cells} live after this "
                    "chunk); simplify the pattern, split the work or raise "
                    "--max-session-arena-cells"
                )
        self.bytes_fed += size
        self._service.metrics.chunk_fed(size)
        if delivered:
            self.mappings_delivered += len(delivered)
            self._service.metrics.mappings_emitted(len(delivered))
        return delivered

    def finish(self) -> list[Mapping]:
        """Run the final capturing phase; returns the remaining mappings.

        Under ``emit="incremental"`` these are the residual mappings that
        only resolved at end of stream (settled ones were already handed
        out by :meth:`feed`); under ``"on_finish"`` they are the whole
        output.
        """
        result = self._evaluator.finish()
        self._finished = True
        if isinstance(result, StreamedResult):
            remaining = list(result.residual)
        else:
            remaining = list(result)
        if remaining:
            self.mappings_delivered += len(remaining)
            self._service.metrics.mappings_emitted(len(remaining))
        return remaining

    @property
    def finished(self) -> bool:
        return self._finished

    def close(self) -> None:
        """Release the admission slot (idempotent; always call it)."""
        if self._closed:
            return
        self._closed = True
        self._service._release(self)

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("finished" if self._finished else "open")
        return (
            f"Session(id={self.session_id}, pattern={self.entry.pattern!r}, "
            f"emit={self.emit!r}, {state})"
        )


class SpannerService:
    """Shared state of the server: plan cache, admission, metrics."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        plan_cache: PlanCache[str, PlanEntry] | None = None,
        metrics: ServerMetrics | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.plan_cache: PlanCache[str, PlanEntry] = (
            plan_cache
            if plan_cache is not None
            else PlanCache(self.config.plan_cache_size, name="serve-plans")
        )
        self.metrics = (
            metrics
            if metrics is not None
            else ServerMetrics(latency_capacity=self.config.latency_capacity)
        )
        self._admission = threading.Lock()
        self._active = 0
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Plan compilation
    # ------------------------------------------------------------------ #

    def _build_entry(self, request: OpenRequest) -> PlanEntry:
        spanner = Spanner.from_regex(request.pattern)
        # Compile eagerly so malformed patterns fail at open time (a 400)
        # instead of surfacing mid-stream, and so a cache hit really does
        # skip all compilation work.
        spanner.runtime()
        return PlanEntry(
            pattern=request.pattern,
            spanner=spanner,
            variables=tuple(sorted(spanner.variables())),
        )

    def entry_for(self, request: OpenRequest) -> tuple[PlanEntry, str]:
        """The shared-cache entry for *request*, plus ``"hit"``/``"miss"``."""
        key = request.cache_key()
        outcome = "hit" if key in self.plan_cache else "miss"
        entry = self.plan_cache.get_or_create(key, lambda: self._build_entry(request))
        return entry, outcome

    def warm(self, pattern: str, alphabet: str | None = None) -> PlanEntry:
        """Precompile *pattern* into the shared cache (the ``--warm`` flag).

        Raises :class:`~repro.core.errors.ParseError` /
        :class:`~repro.core.errors.CompilationError` on malformed input —
        the CLI turns those into its one-line-stderr convention.
        """
        request = OpenRequest(pattern=pattern, alphabet=alphabet, emit="incremental")
        entry, _outcome = self.entry_for(request)
        return entry

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    @property
    def active_sessions(self) -> int:
        with self._admission:
            return self._active

    def open_session(self, request: OpenRequest) -> Session:
        """Admit and open one session; raises :class:`AdmissionError` at cap."""
        with self._admission:
            if self._active >= self.config.max_sessions:
                self.metrics.session_rejected()
                raise AdmissionError(
                    f"session cap reached ({self.config.max_sessions} active); "
                    "retry shortly",
                )
            self._active += 1
        try:
            entry, outcome = self.entry_for(request)
            session = Session(self, next(self._ids), entry, request, outcome)
        except Exception:
            with self._admission:
                self._active -= 1
            raise
        self.metrics.session_opened()
        return session

    def _release(self, session: Session) -> None:
        with self._admission:
            self._active -= 1
        self.metrics.session_closed()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def cache_stats(self) -> CacheStats:
        return self.plan_cache.stats()

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(self.plan_cache)
