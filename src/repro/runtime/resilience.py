"""Fault-tolerant execution of process-pool work: supervision, retries,
resource guards, quarantine, and a deterministic fault-injection harness.

:class:`SupervisedPool` is the one code path of the repository that
submits to or waits on a process pool: :func:`~repro.runtime.batch.run_batch`
in process mode runs its tasks on it, under one contract — **exactness
or a typed error**:

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

:func:`retry_delay`
    Capped exponential backoff (:data:`RETRY_ATTEMPTS` tries per task,
    delays doubling from :data:`RETRY_BASE_DELAY` up to
    :data:`RETRY_MAX_DELAY`), with no jitter: the one retrier is the
    thread collecting a pool's tasks, so there is no crowd of clients to
    spread out, and a run's delays are reproducible.  Every task
    function in the repository is a pure function of its payload, so
    at-least-once resubmission is always safe.

:class:`ResourceBudget`
    Per-document guards: a character budget checked *before* evaluation
    and an arena-cell budget checked on the result a worker is about to
    return, both raising the typed
    :class:`~repro.core.errors.ResourceLimitError` instead of letting a
    worker be OOM-killed (which would surface as an opaque crash).

:class:`ResiliencePolicy` / :class:`FailureReport`
    The caller-facing knobs (deadline, quarantine, budget, fault plan)
    and the structured per-run record of everything that went wrong
    (quarantined documents plus counters).

:class:`SupervisedPool`
    A ``multiprocessing.Pool`` wrapper implementing the escalation
    ladder: retry with backoff → rebuild the pool once → demote to
    inline serial evaluation in the parent (results stay exact — the
    inline path runs the very same task functions — just slower).

:class:`FaultPlan`
    The deterministic fault-injection harness.  A plan is a list of
    :class:`FaultSpec` triggers (``kill`` the worker, ``raise``
    :class:`InjectedFault`, ``delay``) fired by arrival count at named
    sites (``"task"``, ``"evaluate"``, ``"encode"``).
    Arrival counters are per *process* — a pool worker accumulates
    arrivals across the tasks it handles, and a freshly (re)spawned
    worker starts from zero — which is what makes kill-and-recover
    scenarios expressible.  The active plan is held by
    :mod:`repro.runtime.faults` (re-exported here), which imports nothing,
    so the ``"encode"`` site on every request's path does not load this
    module.  The hook is zero-overhead when disabled: call sites guard on
    ``faults._ACTIVE_PLAN is not None`` (one module-attribute load and an
    identity test per document).

Every ladder event is recorded by one call, :func:`_note`, into both
the process-wide :data:`RESILIENCE_METRICS` (the ``resilience`` block of
``ServerMetrics.snapshot()``, i.e. ``/metrics``) and the run's
:class:`FailureReport` (``repro batch --report``).
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import multiprocessing.pool
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.errors import (
    EvaluationError,
    ReproError,
    ResourceLimitError,
    TaskDeadlineError,
    WorkerCrashError,
)
from repro.runtime.faults import clear_fault_plan, install_fault_plan, maybe_fault

__all__ = [
    "COUNTER_NAMES",
    "Counters",
    "DEFAULT_POLICY",
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "FailureRecord",
    "FailureReport",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RESILIENCE_METRICS",
    "RETRY_ATTEMPTS",
    "RETRY_BASE_DELAY",
    "RETRY_MAX_DELAY",
    "ResiliencePolicy",
    "ResourceBudget",
    "SupervisedPool",
    "clear_fault_plan",
    "install_fault_plan",
    "maybe_fault",
    "retry_delay",
    "supervised_get",
]

#: How often a supervised ``get()`` wakes to look for dead workers while
#: a result is pending.  A ready result returns immediately regardless;
#: the poll only costs while genuinely waiting.
POLL_SECONDS = 0.1


# ---------------------------------------------------------------------- #
# Fault injection
# ---------------------------------------------------------------------- #

FAULT_SITES = ("task", "evaluate", "encode")
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
    handled.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)
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
        return f"FaultPlan({len(self.specs)} specs)"


# ---------------------------------------------------------------------- #
# Metrics (consumed by the server's /metrics endpoint and batch reports)
# ---------------------------------------------------------------------- #


#: Every fault-tolerance counter, in snapshot order.  A run's
#: :class:`FailureReport` keeps all but the last: a resource-limit trip
#: is counted where it happens (possibly in a worker), not per run.
COUNTER_NAMES = (
    "tasks_retried",
    "worker_crashes",
    "deadlines_exceeded",
    "pool_rebuilds",
    "inline_fallbacks",
    "documents_quarantined",
    "resource_limit_trips",
)


class Counters:
    """Lock-guarded integer counters over a fixed set of names.

    Written from supervision call sites on any thread and snapshotted by
    the server's ``/metrics`` endpoint and ``repro batch --report``.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def add(self, name: str) -> None:
        """Count one *name* event; an unknown name raises ``ValueError``."""
        with self._lock:
            if name not in self._values:
                raise ValueError(
                    f"unknown counter {name!r}; expected one of {tuple(self._values)}"
                )
            self._values[name] += 1

    def snapshot(self) -> dict[str, int]:
        """The JSON-ready counter block, in declaration order."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values = dict.fromkeys(self._values, 0)


#: The process-wide counters every supervised execution records to.
RESILIENCE_METRICS = Counters(COUNTER_NAMES)


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
                RESILIENCE_METRICS.add("resource_limit_trips")
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
                RESILIENCE_METRICS.add("resource_limit_trips")
                raise ResourceLimitError(
                    f"result arena of {cells} list cells exceeds the "
                    f"per-document budget of {cap}"
                )


# ---------------------------------------------------------------------- #
# Retry schedule and the caller-facing policy bundle
# ---------------------------------------------------------------------- #

#: Tries per task before the ladder escalates (one pool rebuild, then
#: inline evaluation).
RETRY_ATTEMPTS = 3
#: Seconds slept after a task's first failed try; doubles per try.
RETRY_BASE_DELAY = 0.05
#: The cap on one retry's sleep.
RETRY_MAX_DELAY = 2.0


def retry_delay(attempt: int) -> float:
    """Seconds to sleep before resubmitting after failed *attempt* (1-based)."""
    return min(RETRY_BASE_DELAY * 2 ** (attempt - 1), RETRY_MAX_DELAY)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything a supervised execution needs to know about failure.

    The defaults supervise without changing healthy-run semantics: a
    generous deadline bounds hangs, crashes are retried, the pool is
    rebuilt once and the run ultimately degraded to exact inline
    evaluation, and failures *raise* (typed) rather than quarantine.
    Callers that prefer partial results over fail-fast (the CLI batch
    command) set ``quarantine=True`` and read the :class:`FailureReport`.
    """

    #: Seconds one pooled task may run before it is presumed lost;
    #: ``None`` disables the deadline (crash detection still applies).
    task_deadline: float | None = 300.0
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
        #: This run's ladder events, recorded through :func:`_note`.
        self.counters = Counters(COUNTER_NAMES[:-1])

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
            _note("documents_quarantined", self)
        return record

    @property
    def quarantined(self) -> tuple[FailureRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def as_dict(self) -> dict[str, object]:
        """The JSON-ready report (``repro batch --report`` prints this)."""
        with self._lock:
            return {
                "quarantined": [record.as_dict() for record in self._records],
                "counters": self.counters.snapshot(),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def _note(event: str, report: FailureReport | None) -> None:
    """Record one ladder *event* process-wide and in the run's *report*."""
    RESILIENCE_METRICS.add(event)
    if report is not None:
        report.counters.add(event)


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
                _note("worker_crashes", report)
                raise WorkerCrashError(
                    "a pool worker died while the task was pending "
                    f"(workers now {sorted(current)}, were {sorted(known_pids)})"
                ) from None
            if end is not None and time.monotonic() >= end:
                _note("deadlines_exceeded", report)
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
    ) -> None:
        if workers < 1:
            raise EvaluationError(f"worker count must be positive, got {workers}")
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._inline_setup = inline_setup
        self._policy = policy if policy is not None else DEFAULT_POLICY
        self._report = report
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
        return multiprocessing.Pool(
            processes=self.workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    @property
    def demoted(self) -> bool:
        """Whether the run has degraded to inline serial evaluation."""
        return self._inline

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

        Raises what the task deterministically raises (``ReproError``);
        a crash or deadline ends, at worst, in exact inline evaluation.
        """
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
                    deadline=self._policy.task_deadline,
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
                if task.attempts < RETRY_ATTEMPTS:
                    self._note_retry(task)
                elif not self._rebuilt:
                    self._rebuild()
                    task.attempts = 0
                else:
                    self._demote()
            except ReproError:
                raise  # deterministic: a retry cannot change the outcome
            except Exception:
                # Raised *inside* the worker — unexpected, presumed
                # transient (the injected-fault harness lands here too).
                task.attempts += 1
                if task.attempts < RETRY_ATTEMPTS:
                    self._note_retry(task)
                    continue
                # The pool itself is healthy (the worker answered);
                # isolate this task inline and let a genuinely
                # deterministic error propagate from there.
                _note("inline_fallbacks", self._report)
                return self.run_inline(task.fn, task.payload)

    def _note_retry(self, task: "SupervisedPool._Task") -> None:
        _note("tasks_retried", self._report)
        time.sleep(retry_delay(task.attempts))
        self._resubmit(task)

    def _resubmit(self, task: "SupervisedPool._Task") -> None:
        assert self._pool is not None
        task.deaths = self._deaths
        task.handle = self._pool.apply_async(task.fn, (task.payload,))
        task.generation = self._generation

    def _rebuild(self) -> None:
        _note("pool_rebuilds", self._report)
        old = self._pool
        self._rebuilt = True
        self._generation += 1
        # Drop the dead pool first: if the restart fails, later tasks run
        # inline instead of being submitted to terminated workers.
        self._pool = None
        if old is not None:
            old.terminate()
            old.join()
        self._abandoned = 0  # the fresh pool's result cache starts clean
        self._pool = self._start()  # OSError here propagates: cannot start
        self._pids = _pids_of(self._pool)

    def _demote(self) -> None:
        _note("inline_fallbacks", self._report)
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
