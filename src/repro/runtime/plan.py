"""The execution planner: choosing how a spanner gets evaluated.

Every evaluation entry point of the library (the
:class:`~repro.spanners.Spanner` facade, the batch engine and the CLI)
funnels through an :class:`ExecutionPlan` that names the concrete engine to
run:

``compiled``
    Determinize up front, intern into a
    :class:`~repro.runtime.compiled.CompiledEVA` and run the dense-table
    arena engine.  Best when the deterministic automaton is small or reused
    across many documents: the (possibly exponential) determinization is
    paid once and the per-character cost is the lowest of all engines.

``compiled-otf``
    Skip determinization; evaluate through the lazily determinized
    :class:`~repro.runtime.subset.CompiledSubsetEVA` (the paper's Section 4
    closing remark).  Best when up-front subset construction threatens to
    blow up: only subsets actually reached by some document are ever built,
    at the price of a higher per-character constant.

``reference``
    The original dict-and-object Algorithm 1 — kept as the paper-faithful
    baseline that the property suite cross-checks the compiled engines
    against.

``hybrid``
    For spanner-algebra expressions only: the cost-based optimizer
    (:mod:`repro.algebra.optimizer`) cut the expression tree, and the plan
    carries a physical operator tree (:mod:`repro.runtime.operators`)
    whose fused leaves each run their own compiled engine while join /
    union / projection cut edges execute on the result arenas.

Plans additionally carry a ``streaming`` flag: a streaming plan feeds
documents chunk by chunk through
:class:`~repro.runtime.streaming.StreamingEvaluator` instead of handing a
whole document to an engine.  Streaming always runs ``compiled`` — see
:func:`choose_plan`.

The module also hosts :class:`PlanCache` — the shared, size-bounded,
thread-safe LRU over compilation artifacts.  It generalizes what used to
be a private ``OrderedDict`` inside the :class:`~repro.spanners.Spanner`
facade: the facade keeps one per-instance cache of per-alphabet
compilation states, while the server front-end
(:mod:`repro.server`) keeps one *shared* cache of pattern→compiled-plan
entries across every connection.  Both report hit/miss/eviction counters
through :meth:`PlanCache.stats`, which is what the server's ``/metrics``
endpoint exposes as the plan-cache hit ratio.

:func:`choose_plan` implements the ``auto`` policy from an automaton's
:class:`~repro.automata.analysis.AutomatonStatistics` (measured on the
*sequential*, pre-determinization automaton): already-deterministic inputs
compile directly; small non-deterministic ones determinize up front because
the subset construction is provably bounded by ``2^states`` and cheap to
amortize; large non-deterministic ones switch to on-the-fly evaluation.

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
from typing import Callable, Generic, Hashable, TypeVar

from repro.automata.analysis import AutomatonStatistics
from repro.runtime.kernel import KERNELS

__all__ = [
    "ENGINE_CHOICES",
    "KERNEL_CHOICES",
    "CacheStats",
    "ExecutionPlan",
    "PlanCache",
    "choose_plan",
]

#: Engine names accepted by the facade and the CLI; ``auto`` resolves to a
#: concrete engine through :func:`choose_plan`.  ``hybrid`` is only
#: meaningful for spanner-algebra expression sources (elsewhere the facade
#: treats it as ``auto``).
ENGINE_CHOICES = ("auto", "compiled", "compiled-otf", "reference", "hybrid")

#: Inner-loop kernel names accepted by the facade and the CLI.  The axis
#: is orthogonal to the engine choice: ``scalar`` is the per-character
#: fold with the quiescent sprint, ``runlength`` evaluates the run-length
#: encoded class buffer with per-class matrix powers
#: (:mod:`repro.runtime.runlength`), and ``auto`` picks per document from
#: its measured run-length statistics.  Unlike ``engine``, a plan may
#: carry ``kernel="auto"``: the decision is inherently per-document
#: (mean run length is a document property, not an automaton property).
#: The tuple is defined once, in :mod:`repro.runtime.kernel` (the module
#: that owns the kernel axis of the spec), and re-exported here and as
#: ``repro.runtime.runlength.KERNELS`` — the three names can no longer
#: drift, and a unit test still pins them equal.
KERNEL_CHOICES = KERNELS

#: Above this many sequential-automaton states, ``auto`` refuses to
#: determinize a non-deterministic automaton up front: the subset
#: construction may build up to ``2^states`` subsets, while on-the-fly
#: evaluation only ever interns the reachable ones.
DEFAULT_OTF_STATE_THRESHOLD = 24


@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved evaluation strategy.

    ``engine`` is always concrete (never ``"auto"``);
    ``determinize_upfront`` says whether the compilation pipeline runs
    :func:`~repro.automata.transforms.determinize` before evaluation, and
    ``reason`` records the planner's justification for logs and tests.
    ``operators`` is the physical operator tree of a ``hybrid`` plan
    (a prepared :class:`~repro.runtime.operators.PhysicalOperator`), and
    ``None`` for the monolithic single-automaton engines.
    """

    engine: str
    determinize_upfront: bool
    reason: str
    operators: object | None = None
    streaming: bool = False
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_CHOICES or self.engine == "auto":
            raise ValueError(
                f"an ExecutionPlan needs a concrete engine, got {self.engine!r}"
            )
        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; expected one of "
                f"{KERNEL_CHOICES}"
            )
        if self.kernel == "runlength" and self.engine not in (
            "compiled",
            "compiled-otf",
        ):
            raise ValueError(
                f"engine {self.engine!r} has no run-length kernel; "
                "kernel='runlength' needs the dense or lazily determinized "
                "class tables (engine='compiled' or 'compiled-otf')"
            )
        if self.kernel == "runlength" and self.streaming:
            raise ValueError(
                "a streaming plan cannot force kernel='runlength': chunk-fed "
                "evaluation never sees the whole run-length encoding"
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
        if self.streaming and self.engine != "compiled":
            raise ValueError(
                f"engine {self.engine!r} cannot evaluate chunk-fed documents; "
                "streaming plans run the dense-table compiled engine"
            )


def choose_plan(
    stats: AutomatonStatistics | None = None,
    *,
    engine: str = "auto",
    otf_state_threshold: int = DEFAULT_OTF_STATE_THRESHOLD,
    streaming: bool = False,
    kernel: str = "auto",
) -> ExecutionPlan:
    """Resolve *engine* into an :class:`ExecutionPlan`.

    *stats* must describe the **sequential** (pre-determinization)
    automaton and carry its ``deterministic`` flag; it is only consulted
    (and only required) when *engine* is ``"auto"``.  A concrete *engine*
    is honoured as-is.

    *kernel* rides along unresolved unless it is invalid for the engine
    the plan lands on: the ``auto`` kernel is resolved per document at
    evaluation time (``repro.runtime.runlength.prefers_runlength`` keys
    on the measured mean run length of the encoded buffer — automaton
    statistics cannot see it), so the plan records the caller's intent
    and the engines dispatch.  That decision reads a C-level run count
    (:meth:`~repro.runtime.encoding.EncodedDocument.run_count`) and never
    builds the run-length view; only a run-length kernel that actually
    runs does.  A streaming plan pins ``kernel="scalar"``
    because chunk-fed evaluation never sees whole runs.

    With ``streaming=True`` the plan evaluates chunk-fed documents
    through :class:`~repro.runtime.streaming.StreamingEvaluator`.  Only
    the dense-table ``compiled`` engine can stream: the settled-sink
    analysis behind incremental emission needs the full class table up
    front, which a lazily determinized runtime discovers only as
    documents drive it.  ``auto`` therefore resolves to ``compiled``
    without consulting *stats*, and any other engine is rejected.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
        )
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}"
        )
    if streaming:
        if engine not in ("auto", "compiled"):
            raise ValueError(
                f"engine {engine!r} cannot evaluate chunk-fed documents; "
                "streaming supports engine='compiled' (or 'auto')"
            )
        if kernel == "runlength":
            raise ValueError(
                "streaming cannot force kernel='runlength': chunk-fed "
                "evaluation never sees the whole run-length encoding"
            )
        return ExecutionPlan(
            "compiled",
            True,
            "streaming: chunk-fed evaluation needs the dense tables "
            "(and their settled-sink analysis) up front",
            streaming=True,
            kernel="scalar",
        )
    if engine == "hybrid":
        raise ValueError(
            "hybrid plans are produced by the expression optimizer "
            "(repro.algebra.optimizer.optimize), not by choose_plan"
        )
    if engine == "reference":
        return ExecutionPlan("reference", True, "forced by caller", kernel=kernel)
    if engine == "compiled":
        return ExecutionPlan("compiled", True, "forced by caller", kernel=kernel)
    if engine == "compiled-otf":
        return ExecutionPlan(
            "compiled-otf", False, "forced by caller", kernel=kernel
        )

    if stats is None:
        raise ValueError("engine='auto' needs the sequential automaton's statistics")
    if stats.deterministic:
        return ExecutionPlan(
            "compiled",
            True,
            "already deterministic: dense tables at no extra cost",
            kernel=kernel,
        )
    if stats.num_states > otf_state_threshold:
        return ExecutionPlan(
            "compiled-otf",
            False,
            f"non-deterministic with {stats.num_states} states "
            f"(> {otf_state_threshold}): up-front subset construction may "
            "be exponential, determinize on the fly",
            kernel=kernel,
        )
    return ExecutionPlan(
        "compiled",
        True,
        f"non-deterministic but small ({stats.num_states} states "
        f"<= {otf_state_threshold}): determinize once, reuse dense tables",
        kernel=kernel,
    )


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
    :meth:`get_or_create` (the factory runs under the cache lock, so two
    racing callers never compile the same entry twice), refreshed on
    every hit, and dropped — oldest first — once the bound is exceeded.
    Eviction only severs the cache's reference: callers that already
    hold an entry (an in-flight server session feeding its evaluator, a
    borrowed scratch) keep a perfectly valid object; the next lookup for
    that key simply rebuilds a fresh one.  That invariant is what lets
    the multi-tenant server evict under pressure without corrupting
    open sessions, and it is pinned by the integration tests.
    """

    def __init__(self, max_entries: int, *, name: str = "plan-cache") -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.name = name
        self._max_entries = max_entries
        self._entries: OrderedDict[K, V] = OrderedDict()
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

        The factory runs under the cache lock: a compilation is never
        duplicated, at the price of serializing concurrent misses —
        the right trade for compilation artifacts, which are expensive
        to build and cheap to share.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return value
            self._misses += 1
            try:
                value = factory()
            except BaseException:
                # A failed build leaves no entry behind; count it so the
                # server's /metrics can surface repeated bad patterns.
                self._build_failures += 1
                raise
            self._entries[key] = value
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
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
