"""Fault-tolerant execution of process-pool work: supervision, retries,
resource guards, quarantine, and a deterministic fault-injection harness.

:class:`SupervisedPool` is the one code path of the repository that
submits to or waits on a process pool: :func:`~repro.runtime.batch.run_batch`
in process mode and :func:`~repro.runtime.sharding.evaluate_sharded` /
:func:`~repro.runtime.sharding.count_sharded` (on the batch pool or on
one from :func:`~repro.runtime.sharding.start_shard_pool`) all run their
tasks on it, under one contract — **exactness or a typed error**:

* a run either produces results bit-identical to the serial engine, or
  raises a :class:`~repro.core.errors.ReproError` subclass (or records
  the affected documents in a :class:`FailureReport` when quarantine is
  on).  It never hangs and never silently drops documents.

The pieces, bottom up:

:func:`supervised_get`
    ``AsyncResult.get()`` bounded by a per-task deadline, polling so a
    dead worker is detected early (``multiprocessing.Pool`` respawns
    dead workers but the task they were running is simply lost — its
    consumer would otherwise block forever).  Raises
    :class:`~repro.core.errors.TaskDeadlineError` /
    :class:`~repro.core.errors.WorkerCrashError`.

:class:`RetryPolicy`
    Capped exponential backoff with deterministic, seedable jitter.
    Every task function in the repository is a pure function of its
    payload, so at-least-once resubmission is always safe.

:class:`ResourceBudget`
    Per-document guards: a character budget checked *before* evaluation
    and an arena-cell budget checked on the result a worker is about to
    return, both raising the typed
    :class:`~repro.core.errors.ResourceLimitError` instead of letting a
    worker be OOM-killed (which would surface as an opaque crash).

:class:`ResiliencePolicy` / :class:`FailureReport`
    The caller-facing knobs (deadline, retries, rebuild/fallback,
    quarantine, budget, fault plan) and the structured per-run record of
    everything that went wrong (quarantined documents plus counters).

:class:`SupervisedPool`
    A ``multiprocessing.Pool`` wrapper implementing the escalation
    ladder: retry with backoff → rebuild the pool once → demote to
    inline serial evaluation in the parent (results stay exact — the
    inline path runs the very same task functions — just slower).

:class:`FaultPlan`
    The deterministic fault-injection harness.  A plan is a list of
    :class:`FaultSpec` triggers (``kill`` the worker, ``raise``
    :class:`InjectedFault`, ``delay``) fired by arrival count at named
    sites (``"task"``, ``"evaluate"``, ``"encode"``, ``"shard-task"``).
    Arrival counters are per *process* — a pool worker accumulates
    arrivals across the tasks it handles, and a freshly (re)spawned
    worker starts from zero — which is what makes kill-and-recover
    scenarios expressible.  The hook is zero-overhead when disabled:
    call sites guard on ``resilience._ACTIVE_PLAN is not None`` (one
    module-attribute load and an identity test per document).

Process-wide counters land in :data:`RESILIENCE_METRICS` and surface
through ``ServerMetrics.snapshot()`` (the ``/metrics`` endpoint) and
``repro batch --report``.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import multiprocessing.pool
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.errors import (
    EvaluationError,
    ReproError,
    ResourceLimitError,
    TaskDeadlineError,
    WorkerCrashError,
)

__all__ = [
    "DEFAULT_POLICY",
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "FailureRecord",
    "FailureReport",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RESILIENCE_METRICS",
    "ResilienceMetrics",
    "ResiliencePolicy",
    "ResourceBudget",
    "RetryPolicy",
    "SupervisedPool",
    "clear_fault_plan",
    "install_fault_plan",
    "maybe_fault",
    "resilience_metrics_snapshot",
    "supervised_get",
]

#: How often a supervised ``get()`` wakes to look for dead workers while
#: a result is pending.  A ready result returns immediately regardless;
#: the poll only costs while genuinely waiting.
POLL_SECONDS = 0.1


# ---------------------------------------------------------------------- #
# Fault injection
# ---------------------------------------------------------------------- #

FAULT_SITES = ("task", "evaluate", "encode", "shard-task")
FAULT_ACTIONS = ("raise", "kill", "delay")

#: Exit status of a worker killed by a ``kill`` fault — distinctive on
#: purpose, so a chaos-test failure log tells an injected death from a
#: real segfault at a glance.
KILL_EXIT_STATUS = 70


class InjectedFault(RuntimeError):
    """The error a ``raise`` fault throws at its site.

    Deliberately *not* a :class:`~repro.core.errors.ReproError`: it
    models transient infrastructure failure, which the supervised
    executors must treat as retryable — library errors (deterministic,
    a retry cannot change the outcome) are exactly the ``ReproError``
    subtree.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire *action* on arrivals ``[nth, nth + count)`` at *site*.

    Arrivals are counted per process (see the module docstring), starting
    at 1.  ``count`` extends the trigger over consecutive arrivals; a
    large count means "every time from the nth on".
    """

    site: str
    action: str
    nth: int = 1
    count: int = 1
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


class FaultPlan:
    """A deterministic, picklable set of fault triggers.

    The plan crosses the process boundary through pool initializer
    arguments; each process owns its arrival counters, so a given worker
    sees a reproducible fault sequence as a function of the tasks it
    handled.  *seed* does not drive any randomness inside the plan
    (triggers are pure arrival counts — determinism is the point); it is
    carried so harness code can derive, say, jittered retry delays from
    the same number.
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._arrivals: dict[str, int] = {}

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse ``[{"site": ..., "action": ..., ...}, ...]`` (the CLI flag).

        Raises :class:`ValueError` on malformed input, with a message
        naming the offending entry.
        """
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"--inject-faults is not valid JSON: {error}") from error
        if isinstance(raw, dict):
            raw = [raw]
        if not isinstance(raw, list):
            raise ValueError(
                "--inject-faults must be a JSON list of fault objects, "
                f"got {type(raw).__name__}"
            )
        specs = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ValueError(
                    f"fault #{index} must be an object, got {type(entry).__name__}"
                )
            unknown = set(entry) - {"site", "action", "nth", "count", "seconds"}
            if unknown:
                raise ValueError(
                    f"fault #{index} has unknown keys {sorted(unknown)}"
                )
            try:
                specs.append(FaultSpec(**entry))
            except TypeError as error:
                raise ValueError(f"fault #{index}: {error}") from error
        return cls(specs)

    def arrivals(self, site: str) -> int:
        """How many times *site* has been reached in this process."""
        return self._arrivals.get(site, 0)

    def fire(self, site: str) -> None:
        """Record one arrival at *site* and trigger any matching spec."""
        n = self._arrivals.get(site, 0) + 1
        self._arrivals[site] = n
        for spec in self.specs:
            if spec.site == site and spec.nth <= n < spec.nth + spec.count:
                self._trigger(spec, site, n)

    @staticmethod
    def _trigger(spec: FaultSpec, site: str, arrival: int) -> None:
        if spec.action == "delay":
            time.sleep(spec.seconds)
        elif spec.action == "raise":
            raise InjectedFault(
                f"injected fault at site {site!r}, arrival {arrival}"
            )
        else:  # "kill": die the way a segfault or the OOM killer would —
            # no exception, no cleanup, the task simply never completes.
            os._exit(KILL_EXIT_STATUS)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.specs)} specs, seed={self.seed})"


#: The process-local active plan.  ``None`` (the overwhelmingly common
#: case) short-circuits every hook to one attribute load + identity test.
_ACTIVE_PLAN: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Activate *plan* in this process (workers do this in their initializer)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def clear_fault_plan() -> None:
    """Deactivate fault injection in this process."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = None


def maybe_fault(site: str) -> None:
    """Fire the active plan at *site*, if any.

    Hot call sites should guard with ``if resilience._ACTIVE_PLAN is not
    None`` first so the disabled case costs no function call at all.
    """
    plan = _ACTIVE_PLAN
    if plan is not None:
        plan.fire(site)


# ---------------------------------------------------------------------- #
# Metrics (consumed by the server's /metrics endpoint and batch reports)
# ---------------------------------------------------------------------- #


class ResilienceMetrics:
    """Process-wide fault-tolerance counters.

    Lock-guarded like :class:`~repro.runtime.sharding.ShardMetrics`: the
    counters are written from supervision call sites on any thread and
    snapshotted by the server's ``/metrics`` endpoint.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tasks_retried = 0
        self._worker_crashes = 0
        self._deadlines_exceeded = 0
        self._pool_rebuilds = 0
        self._inline_fallbacks = 0
        self._documents_quarantined = 0
        self._resource_limit_trips = 0

    def task_retried(self) -> None:
        with self._lock:
            self._tasks_retried += 1

    def worker_crashed(self) -> None:
        with self._lock:
            self._worker_crashes += 1

    def deadline_exceeded(self) -> None:
        with self._lock:
            self._deadlines_exceeded += 1

    def pool_rebuilt(self) -> None:
        with self._lock:
            self._pool_rebuilds += 1

    def inline_fallback(self) -> None:
        with self._lock:
            self._inline_fallbacks += 1

    def document_quarantined(self) -> None:
        with self._lock:
            self._documents_quarantined += 1

    def resource_limit_tripped(self) -> None:
        with self._lock:
            self._resource_limit_trips += 1

    def reset(self) -> None:
        with self._lock:
            self._tasks_retried = 0
            self._worker_crashes = 0
            self._deadlines_exceeded = 0
            self._pool_rebuilds = 0
            self._inline_fallbacks = 0
            self._documents_quarantined = 0
            self._resource_limit_trips = 0

    def snapshot(self) -> dict[str, int]:
        """The JSON-ready counter block exposed under ``/metrics``."""
        with self._lock:
            return {
                "tasks_retried": self._tasks_retried,
                "worker_crashes": self._worker_crashes,
                "deadlines_exceeded": self._deadlines_exceeded,
                "pool_rebuilds": self._pool_rebuilds,
                "inline_fallbacks": self._inline_fallbacks,
                "documents_quarantined": self._documents_quarantined,
                "resource_limit_trips": self._resource_limit_trips,
            }


#: The process-wide metrics instance every supervised execution records to.
RESILIENCE_METRICS = ResilienceMetrics()


def resilience_metrics_snapshot() -> dict[str, int]:
    """The process-wide resilience counters (the server's ``/metrics`` block)."""
    return RESILIENCE_METRICS.snapshot()


# ---------------------------------------------------------------------- #
# Resource guards
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResourceBudget:
    """Per-document limits enforced with a typed error, not an OOM kill.

    ``max_document_chars`` is checked *before* evaluation (admission: an
    outsized document never reaches an engine); ``max_arena_cells``
    bounds the result a worker is about to return — it is checked after
    evaluation but before the arena crosses the process boundary, so a
    runaway result is dropped in the worker instead of being pickled
    into the parent.  ``None`` disables the respective check.
    """

    max_document_chars: int | None = None
    max_arena_cells: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_document_chars", "max_arena_cells"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")

    def check_document(self, document: object) -> None:
        """Raise :class:`ResourceLimitError` if *document* is over budget."""
        cap = self.max_document_chars
        if cap is not None:
            length = len(document)  # type: ignore[arg-type]
            if length > cap:
                RESILIENCE_METRICS.resource_limit_tripped()
                raise ResourceLimitError(
                    f"document of {length} characters exceeds the "
                    f"per-document budget of {cap}"
                )

    def check_result(self, result: object) -> None:
        """Raise :class:`ResourceLimitError` if an arena result is over budget.

        Results without a cell arena (hybrid mapping sets, reference
        object DAGs) pass — the guard targets the integer arenas whose
        cell lists dominate worker memory.
        """
        cap = self.max_arena_cells
        if cap is not None:
            cells = len(getattr(result, "cell_nodes", ()))
            if cells > cap:
                RESILIENCE_METRICS.resource_limit_tripped()
                raise ResourceLimitError(
                    f"result arena of {cells} list cells exceeds the "
                    f"per-document budget of {cap}"
                )


# ---------------------------------------------------------------------- #
# Retry policy and the caller-facing policy bundle
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic, seedable jitter.

    Attempt ``k`` (1-based) sleeps ``min(base_delay * 2**(k-1),
    max_delay)`` plus a jitter fraction of that, drawn from the
    caller-held RNG — pass ``seed`` so a run's delay sequence is
    reproducible (the chaos suite pins it).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def rng(self) -> random.Random:
        """A fresh RNG for one run's jitter draws (seeded when *seed* is)."""
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to sleep before re-submitting after failed *attempt*."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        return base + base * self.jitter * rng.random()


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything a supervised execution needs to know about failure.

    The defaults supervise without changing healthy-run semantics: a
    generous deadline bounds hangs, crashes are retried and ultimately
    degraded to exact inline evaluation, and failures *raise* (typed)
    rather than quarantine.  Callers that prefer partial results over
    fail-fast (the CLI batch command) set ``quarantine=True`` and read
    the :class:`FailureReport`.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seconds one pooled task may run before it is presumed lost;
    #: ``None`` disables the deadline (crash detection still applies).
    task_deadline: float | None = 300.0
    #: Rebuild a broken pool once before giving up on pooled execution.
    rebuild_pool: bool = True
    #: After the rebuild is spent, demote to inline serial evaluation
    #: (exact, just slower) instead of raising.
    fallback_inline: bool = True
    #: Record failing documents in the report and keep going, instead of
    #: raising on the first poison document.
    quarantine: bool = False
    budget: ResourceBudget | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError(
                f"task_deadline must be positive or None, got {self.task_deadline}"
            )


#: The policy supervised paths use when the caller passes none.
DEFAULT_POLICY = ResiliencePolicy()


# ---------------------------------------------------------------------- #
# The failure report (quarantine record + per-run counters)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FailureRecord:
    """One quarantined document: identity, stage, and the typed reason."""

    doc_id: object
    #: Where it failed: ``"guard"`` (resource budget), ``"evaluate"``
    #: (the engine raised), or ``"pool"`` (crash/deadline exhausted every
    #: recovery layer).
    stage: str
    error_type: str
    message: str
    attempts: int = 1

    def as_dict(self) -> dict[str, object]:
        return {
            "doc_id": str(self.doc_id),
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


class FailureReport:
    """The structured per-run failure record of one supervised execution.

    Collects the documents that were quarantined (with their typed
    errors) plus the recovery counters of the run — what
    ``repro batch --report`` prints and the chaos suite asserts on.
    Thread-safe: batch supervision runs in the caller's thread, but the
    report outlives the generator and may be read elsewhere.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[FailureRecord] = []
        self._tasks_retried = 0
        self._worker_crashes = 0
        self._deadlines_exceeded = 0
        self._pool_rebuilds = 0
        self._inline_fallbacks = 0

    # -- recording (mirrored into the process-wide metrics by callers) --

    def quarantine(
        self, doc_id: object, stage: str, error: BaseException, *, attempts: int = 1
    ) -> FailureRecord:
        record = FailureRecord(
            doc_id=doc_id,
            stage=stage,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
        )
        with self._lock:
            self._records.append(record)
        RESILIENCE_METRICS.document_quarantined()
        return record

    def task_retried(self) -> None:
        with self._lock:
            self._tasks_retried += 1

    def worker_crashed(self) -> None:
        with self._lock:
            self._worker_crashes += 1

    def deadline_exceeded(self) -> None:
        with self._lock:
            self._deadlines_exceeded += 1

    def pool_rebuilt(self) -> None:
        with self._lock:
            self._pool_rebuilds += 1

    def inline_fallback(self) -> None:
        with self._lock:
            self._inline_fallbacks += 1

    # -- reading --

    @property
    def quarantined(self) -> tuple[FailureRecord, ...]:
        with self._lock:
            return tuple(self._records)

    @property
    def tasks_retried(self) -> int:
        with self._lock:
            return self._tasks_retried

    @property
    def pool_rebuilds(self) -> int:
        with self._lock:
            return self._pool_rebuilds

    @property
    def inline_fallbacks(self) -> int:
        with self._lock:
            return self._inline_fallbacks

    def as_dict(self) -> dict[str, object]:
        """The JSON-ready report (``repro batch --report`` prints this)."""
        with self._lock:
            return {
                "quarantined": [record.as_dict() for record in self._records],
                "counters": {
                    "tasks_retried": self._tasks_retried,
                    "worker_crashes": self._worker_crashes,
                    "deadlines_exceeded": self._deadlines_exceeded,
                    "pool_rebuilds": self._pool_rebuilds,
                    "inline_fallbacks": self._inline_fallbacks,
                    "documents_quarantined": len(self._records),
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# ---------------------------------------------------------------------- #
# Supervised result collection
# ---------------------------------------------------------------------- #


def _pids_of(raw_pool: multiprocessing.pool.Pool | None) -> frozenset[int]:
    """The live worker pids of a ``multiprocessing.Pool`` (best effort).

    Reads the pool's private worker list — stable across CPython 3.8+
    and the only way to notice a death early: the pool itself respawns
    dead workers without ever failing the task they were running.
    """
    if raw_pool is None:
        return frozenset()
    try:
        workers = list(raw_pool._pool)  # type: ignore[attr-defined]
    except Exception:
        return frozenset()
    return frozenset(worker.pid for worker in workers if worker.pid is not None)


def supervised_get(
    handle: Any,
    *,
    deadline: float | None,
    known_pids: frozenset[int],
    raw_pool: multiprocessing.pool.Pool | None = None,
    report: FailureReport | None = None,
    poll: float = POLL_SECONDS,
) -> Any:
    """``handle.get()`` bounded by *deadline* and watched for worker deaths.

    Returns the task's result, re-raises whatever the task raised in the
    worker, and converts the two lost-task shapes into typed errors:
    :class:`WorkerCrashError` when a pid of *known_pids* is no longer in
    the pool (a worker died — if it was ours, the task is lost; if not,
    resubmission merely duplicates a pure computation), and
    :class:`TaskDeadlineError` when *deadline* elapsed.

    *known_pids* is the worker set :func:`_pids_of` read no later than
    the task's submission, so a worker that dies and is respawned before
    this call is still noticed at the first poll.  Pids the pool gained
    since are ignored: a respawn only ever follows a death.
    """
    end = None if deadline is None else time.monotonic() + deadline
    while True:
        try:
            return handle.get(poll)
        except multiprocessing.TimeoutError:
            current = _pids_of(raw_pool)
            if known_pids - current:
                RESILIENCE_METRICS.worker_crashed()
                if report is not None:
                    report.worker_crashed()
                raise WorkerCrashError(
                    "a pool worker died while the task was pending "
                    f"(workers now {sorted(current)}, were {sorted(known_pids)})"
                ) from None
            if end is not None and time.monotonic() >= end:
                RESILIENCE_METRICS.deadline_exceeded()
                if report is not None:
                    report.deadline_exceeded()
                raise TaskDeadlineError(
                    f"pooled task missed its {deadline:g}s deadline"
                ) from None


class SupervisedPool:
    """A worker pool with the full escalation ladder wired in.

    ``submit()`` returns a task token; ``collect()`` blocks on it under
    supervision, resubmitting on crash/deadline with backoff, rebuilding
    the pool once, and finally demoting the whole run to inline serial
    evaluation — at which point every remaining task runs exactly in the
    parent process.  Deterministic library errors (the ``ReproError``
    subtree) are never retried: the same input fails the same way every
    time, so they propagate (or quarantine) immediately.

    *initargs* initialize workers (and may carry a fault plan);
    *inline_initargs* initialize the parent for inline runs and must
    **not** carry the fault plan — the inline path is the exactness
    backstop.  *inline_setup* applies them and returns a teardown
    callable restoring whatever worker globals it clobbered.
    """

    def __init__(
        self,
        workers: int,
        *,
        initializer: Callable[..., None],
        initargs: tuple,
        inline_setup: Callable[[], Callable[[], None]],
        policy: ResiliencePolicy | None = None,
        report: FailureReport | None = None,
        context: multiprocessing.context.BaseContext | None = None,
    ) -> None:
        if workers < 1:
            raise EvaluationError(f"worker count must be positive, got {workers}")
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._inline_setup = inline_setup
        self._policy = policy if policy is not None else DEFAULT_POLICY
        self._report = report
        self._context = context if context is not None else multiprocessing.get_context()
        self._rng = self._policy.retry.rng()
        self._generation = 0
        self._rebuilt = False
        self._inline = False
        # Handles lost to a crash/deadline and resubmitted: the original
        # jobs stay in the pool's internal result cache forever (CPython
        # never fails the task of a dead worker), so a graceful
        # close()+join() would block on the cache draining.  close()
        # falls back to terminate() when any exist.
        self._abandoned = 0
        self._pool: multiprocessing.pool.Pool | None = self._start()
        # The worker set pending tasks are checked against, and how many
        # deaths have been reported: each death is counted once, however
        # many in-flight tasks were submitted before it.
        self._pids = _pids_of(self._pool)
        self._deaths = 0

    def _start(self) -> multiprocessing.pool.Pool:
        return self._context.Pool(
            processes=self.workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    @property
    def demoted(self) -> bool:
        """Whether the run has degraded to inline serial evaluation."""
        return self._inline

    @property
    def closed(self) -> bool:
        """Whether the workers are gone (closed, terminated or demoted).

        A closed pool still accepts tasks — they run inline — but an
        owner that keeps pools across runs builds a fresh one instead.
        """
        return self._pool is None

    class _Task:
        __slots__ = ("fn", "payload", "handle", "generation", "attempts", "deaths")

        def __init__(self, fn, payload, handle, generation, deaths=0):
            self.fn = fn
            self.payload = payload
            self.handle = handle
            self.generation = generation
            self.attempts = 0
            # Deaths reported before submission: a later one may have
            # taken this task with it.
            self.deaths = deaths

    def submit(self, fn: Callable[[Any], Any], payload: Any) -> "SupervisedPool._Task":
        """Dispatch one task; pair with :meth:`collect`."""
        if self._inline or self._pool is None:
            # Demoted (or closed mid-iteration): collect() runs it inline.
            return self._Task(fn, payload, None, -1)
        return self._Task(
            fn,
            payload,
            self._pool.apply_async(fn, (payload,)),
            self._generation,
            self._deaths,
        )

    def run_inline(self, fn: Callable[[Any], Any], payload: Any) -> Any:
        """Run one task in the parent, exactly as a worker would have."""
        teardown = self._inline_setup()
        try:
            return fn(payload)
        finally:
            teardown()

    def collect(self, task: "SupervisedPool._Task") -> Any:
        """Wait for *task*, escalating through retry → rebuild → inline.

        Raises what the task deterministically raises (``ReproError``),
        or — with the fallback disabled — the final
        :class:`WorkerCrashError` / :class:`TaskDeadlineError`.
        """
        policy = self._policy
        retry = policy.retry
        while True:
            if self._inline or self._pool is None:
                return self.run_inline(task.fn, task.payload)
            if task.generation != self._generation or task.handle is None:
                self._resubmit(task)
            elif task.deaths != self._deaths and not task.handle.ready():
                # A death reported while waiting on another task may have
                # lost this one too: resubmit it, without counting again.
                self._abandoned += 1
                self._resubmit(task)
            current = _pids_of(self._pool)
            if self._pids <= current:
                self._pids = current  # adopt workers respawned since
            try:
                return supervised_get(
                    task.handle,
                    deadline=policy.task_deadline,
                    known_pids=self._pids,
                    raw_pool=self._pool,
                    report=self._report,
                )
            except WorkerCrashError as crash:
                if not isinstance(crash, TaskDeadlineError):
                    self._deaths += 1
                    self._pids &= _pids_of(self._pool)
                self._abandoned += 1  # the old handle will never resolve
                task.attempts += 1
                if task.attempts < retry.max_attempts:
                    self._note_retry(task)
                    continue
                if policy.rebuild_pool and not self._rebuilt:
                    self._rebuild()
                    task.attempts = 0
                    continue
                if policy.fallback_inline:
                    self._demote()
                    continue
                raise crash
            except ReproError:
                raise  # deterministic: a retry cannot change the outcome
            except Exception:
                # Raised *inside* the worker — unexpected, presumed
                # transient (the injected-fault harness lands here too).
                task.attempts += 1
                if task.attempts < retry.max_attempts:
                    self._note_retry(task)
                    continue
                if policy.fallback_inline:
                    # The pool itself is healthy (the worker answered);
                    # isolate this task inline and let a genuinely
                    # deterministic error propagate from there.
                    RESILIENCE_METRICS.inline_fallback()
                    if self._report is not None:
                        self._report.inline_fallback()
                    return self.run_inline(task.fn, task.payload)
                raise

    def _note_retry(self, task: "SupervisedPool._Task") -> None:
        RESILIENCE_METRICS.task_retried()
        if self._report is not None:
            self._report.task_retried()
        delay = self._policy.retry.delay(task.attempts, self._rng)
        if delay > 0:
            time.sleep(delay)
        self._resubmit(task)

    def _resubmit(self, task: "SupervisedPool._Task") -> None:
        assert self._pool is not None
        task.deaths = self._deaths
        task.handle = self._pool.apply_async(task.fn, (task.payload,))
        task.generation = self._generation

    def _rebuild(self) -> None:
        RESILIENCE_METRICS.pool_rebuilt()
        if self._report is not None:
            self._report.pool_rebuilt()
        old = self._pool
        self._rebuilt = True
        self._generation += 1
        # Drop the dead pool first: if the restart fails, the pool reads
        # as closed and an owner that keeps pools builds a fresh one.
        self._pool = None
        if old is not None:
            old.terminate()
            old.join()
        self._abandoned = 0  # the fresh pool's result cache starts clean
        self._pool = self._start()  # OSError here propagates: cannot start
        self._pids = _pids_of(self._pool)

    def _demote(self) -> None:
        RESILIENCE_METRICS.inline_fallback()
        if self._report is not None:
            self._report.inline_fallback()
        self._inline = True
        old = self._pool
        self._pool = None
        if old is not None:
            old.terminate()
            old.join()

    def close(self) -> None:
        """Graceful shutdown for the clean-completion path.

        With crash-abandoned handles outstanding, ``close()+join()``
        would wait forever on jobs whose workers are gone (their cache
        entries never drain), so the shutdown downgrades to a terminate
        — every wanted result has been collected by the time this runs.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            if self._abandoned:
                pool.terminate()
            else:
                pool.close()
            pool.join()

    def terminate(self) -> None:
        """Hard shutdown for error paths (in-flight tasks are abandoned)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __del__(self) -> None:
        # Collection can run during interpreter shutdown, when the pool
        # machinery (or the multiprocessing module itself) is already
        # half-dismantled: those failures surface as the specific
        # shutdown exceptions below and are expected.  Anything else is
        # a real bug worth a log line — but never a raise from __del__.
        # Nobody is left to read the results of a collected pool, so its
        # workers are terminated, not drained; a pool its owner already
        # shut down has nothing left to release.
        try:
            if self._pool is not None:
                self.terminate()
        except (OSError, ValueError, RuntimeError, AttributeError, TypeError):
            pass
        except Exception:
            logging.getLogger(__name__).exception(
                "SupervisedPool.__del__: unexpected error while closing the pool"
            )
