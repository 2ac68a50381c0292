"""The execution planner: choosing how a spanner gets evaluated.

Every evaluation entry point of the library (the
:class:`~repro.spanners.Spanner` facade, the batch engine and the CLI)
funnels through an :class:`ExecutionPlan` that names the concrete engine to
run:

``compiled``
    The lazily determinized
    :class:`~repro.runtime.subset.CompiledSubsetEVA` (the paper's Section 4
    closing remark): no request determinizes up front, and only subsets
    some document reaches are ever built.  ``auto`` resolves to it for
    every source the optimizer does not cut.

``reference``
    The original dict-and-object Algorithm 1 — kept as the paper-faithful
    baseline that the property suite cross-checks the compiled engines
    against.

``hybrid``
    For spanner-algebra expressions only: the cost-based optimizer
    (:mod:`repro.algebra.optimizer`) cut the expression tree, and the plan
    carries a physical operator tree (:mod:`repro.runtime.operators`)
    whose fused leaves each run their own compiled automaton while join /
    union / projection cut edges execute on the result arenas.

A plan chooses no inner loop: every compiled engine counts with
:func:`~repro.runtime.kernel.count_loop`, which picks run powers per run
as it goes, so the facade's ``kernel=`` argument is checked and ignored.

The module also hosts :class:`PlanCache` — the shared, size-bounded,
thread-safe LRU over compilation artifacts.  The server front-end
(:mod:`repro.server`) keeps one *shared* cache of pattern→compiled-plan
entries across every connection, and the
:class:`~repro.spanners.Spanner` facade memoizes the reference engine's
per-document-alphabet automata in a small one.  Both report
hit/miss/eviction counters through :meth:`PlanCache.stats`, which is what
the server's ``/metrics`` endpoint exposes as the plan-cache hit ratio.

There is no ``auto`` decision for a monolithic automaton: it runs
``compiled``.  :func:`choose_plan` resolves ``auto`` and forced engines;
only the expression optimizer can make a plan ``hybrid``.

Whatever engine a plan names, the document reaches it as an *object*, not
a pre-translated id list: every compiled engine (and every fused leaf of a
``hybrid`` plan) pulls the shared class-id buffer of
:mod:`repro.runtime.encoding` from the document's own cache, so one
encoding pass per alphabet-classing signature serves the whole plan — the
planner never has to trade engines against re-translation cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generic, Hashable, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "ENGINE_CHOICES",
    "MODES",
    "CacheStats",
    "ExecutionPlan",
    "PlanCache",
    "choose_plan",
]

#: Engine names accepted by the facade and the CLI; ``auto`` resolves to a
#: concrete engine through :func:`choose_plan`.  ``hybrid`` is only
#: meaningful for spanner-algebra expression sources (elsewhere the facade
#: treats it as ``auto``).
ENGINE_CHOICES = ("auto", "compiled", "reference", "hybrid")

#: Batch execution modes (:func:`~repro.runtime.batch.run_batch`).  They
#: live here, beside the engine names, so the CLI can offer both as
#: choices without loading the process-pool machinery.
MODES = ("serial", "processes")

@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved evaluation strategy.

    ``engine`` is always concrete (never ``"auto"``), and ``reason``
    records the planner's justification for logs and tests.
    ``operators`` is the physical operator tree of a ``hybrid`` plan
    (a prepared :class:`~repro.runtime.operators.PhysicalOperator`), and
    ``None`` for the monolithic single-automaton engines.
    """

    engine: str
    reason: str
    operators: object | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_CHOICES or self.engine == "auto":
            raise ValueError(
                f"an ExecutionPlan needs a concrete engine, got {self.engine!r}"
            )
        if self.engine == "hybrid" and self.operators is None:
            raise ValueError(
                "a hybrid ExecutionPlan carries its physical operator tree; "
                "build one through the optimizer (repro.algebra.optimizer)"
            )
        if self.engine != "hybrid" and self.operators is not None:
            raise ValueError(
                f"engine {self.engine!r} does not execute a physical operator tree"
            )


def choose_plan(*, engine: str = "auto") -> ExecutionPlan:
    """Resolve *engine* into an :class:`ExecutionPlan`.

    ``auto`` runs the lazily determinized automaton; a concrete *engine*
    is honoured as-is.  ``hybrid`` is not resolved here: only the
    expression optimizer (:func:`repro.algebra.optimizer.optimize`) can
    cut an expression tree.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
        )
    if engine == "hybrid":
        raise ValueError(
            "engine='hybrid' is decided per source, by the expression "
            "optimizer (repro.algebra.optimizer.optimize)"
        )
    if engine == "auto":
        return ExecutionPlan(
            "compiled",
            "one lazily determinized automaton: subsets are built as documents reach them",
        )
    return ExecutionPlan(engine, "forced by caller")


# ---------------------------------------------------------------------- #
# The shared compilation-artifact cache
# ---------------------------------------------------------------------- #

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a :class:`PlanCache`'s counters.

    ``hits``/``misses`` count :meth:`PlanCache.get_or_create` (and
    :meth:`PlanCache.get`) lookups since construction (or the last
    :meth:`PlanCache.reset_stats`), ``evictions`` counts entries dropped
    by the LRU bound, and ``entries``/``max_entries`` describe the
    current occupancy.  ``hit_ratio`` is what the server's ``/metrics``
    endpoint reports.  ``build_failures`` counts factories that raised
    out of :meth:`PlanCache.get_or_create` — a growing number flags
    clients repeatedly submitting patterns that fail to compile.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    max_entries: int
    build_failures: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """The JSON-ready form used by ``/metrics``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "build_failures": self.build_failures,
            "hit_ratio": round(self.hit_ratio, 6),
        }


class PlanCache(Generic[K, V]):
    """A size-bounded, thread-safe LRU over compilation artifacts.

    Values are built at most once per resident key through
    :meth:`get_or_create` (racing callers of one key wait for its one
    build, while the factory runs outside the cache lock), refreshed on
    every hit, and dropped — oldest first — once the bound is exceeded.
    Eviction only severs the cache's reference: callers that already
    hold an entry (an in-flight server session feeding its evaluator)
    keep a perfectly valid object; the next lookup for that key simply
    rebuilds a fresh one.  That invariant is what lets
    the multi-tenant server evict under pressure without corrupting
    open sessions, and it is pinned by the integration tests.
    """

    def __init__(self, max_entries: int, *, name: str = "plan-cache") -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.name = name
        self._max_entries = max_entries
        self._entries: OrderedDict[K, V] = OrderedDict()
        #: the builds in flight, one future per key
        self._building: dict[K, Future[V]] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._build_failures = 0

    @property
    def max_entries(self) -> int:
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[K]:
        """The resident keys, oldest (next eviction victim) first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: K) -> V | None:
        """Return the entry for *key* (refreshing recency) or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(key)
            return value

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """Return the entry for *key*, building it via *factory* on a miss.

        The factory runs outside the cache lock, so hits on other keys
        and :meth:`stats` never wait for a compilation.  A compilation is
        still never duplicated: a caller that misses while *key* is being
        built waits on that build's future (and counts as a hit), and
        gets its value — or its exception.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return value
            build = self._building.get(key)
            owner = build is None
            if owner:
                # Imported here: only a build needs it, and with its
                # logging it costs every ``import repro`` several ms.
                from concurrent.futures import Future

                self._misses += 1
                build = self._building[key] = Future()
            else:
                self._hits += 1
        if not owner:
            return build.result()
        try:
            value = factory()
        except BaseException as error:
            # A failed build leaves no entry behind; count it so the
            # server's /metrics can surface repeated bad patterns.
            with self._lock:
                self._build_failures += 1
                del self._building[key]
            build.set_exception(error)
            raise
        with self._lock:
            self._entries[key] = value
            del self._building[key]
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
        build.set_result(value)
        return value

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._build_failures = 0

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters and occupancy."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                max_entries=self._max_entries,
                build_failures=self._build_failures,
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"PlanCache({self.name!r}, entries={stats.entries}/"
            f"{stats.max_entries}, hits={stats.hits}, misses={stats.misses}, "
            f"evictions={stats.evictions})"
        )
