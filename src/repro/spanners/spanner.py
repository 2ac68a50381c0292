"""The :class:`Spanner` facade — the library's main entry point.

A :class:`Spanner` wraps any supported specification (regex formula text or
AST, classic VA, extended VA, or an algebra expression) and exposes the
evaluation operations of the paper:

* :meth:`Spanner.enumerate` — constant-delay enumeration after linear-time
  preprocessing (Algorithms 1 and 2),
* :meth:`Spanner.evaluate` — the materialized list of output mappings,
* :meth:`Spanner.count` — output counting in ``O(|A| × |d|)`` (Algorithm 3),
* :meth:`Spanner.extract` — convenience extraction of the captured text.

Compilation into a deterministic sequential eVA happens lazily and is
cached per alphabet (wildcard patterns expand over the characters of the
documents they are evaluated on); the cache is a small LRU bounded by the
``max_cached_alphabets`` knob, and every per-alphabet artifact — the
sequential eVA, the deterministic eVA, both compiled runtimes and the
execution plan — lives in **one** entry, so they are evicted together.

Documents flow down to the engines as objects: every compiled engine
translates them once per alphabet-classing signature into a cached
class-id buffer (:mod:`repro.runtime.encoding`), so calling
:meth:`Spanner.enumerate`, :meth:`Spanner.count` and
:meth:`Spanner.extract` on the same :class:`~repro.core.documents.Document`
pays a single C-level encoding pass, and the per-alphabet cache entry
carries one reusable :class:`~repro.runtime.engine.EvaluationScratch` for
the arena and counting engines.

Evaluation goes through the :class:`~repro.runtime.plan.ExecutionPlan`
layer.  ``engine="auto"`` (the default) lets the planner pick between the
dense-table arena engine (``"compiled"``), the lazily determinized subset
engine (``"compiled-otf"``, the paper's Section 4 closing remark — no
up-front :func:`~repro.automata.transforms.determinize` call at all) and is
cross-checked against the dict-based reference loop (``"reference"``).  A
concrete engine name forces that engine.  Multi-document workloads go
through :meth:`Spanner.run_batch`, which compiles once and streams every
document through the same tables.

Spanner-algebra expression sources additionally go through the cost-based
optimizer (:mod:`repro.algebra.optimizer`): under ``engine="auto"`` (or
the explicit ``"hybrid"``) the expression tree is rewritten (projection
pushdown, union/join flattening, join reordering) and each operator either
fuses into an automaton (Proposition 4.4) or cuts into a runtime operator
over result arenas (:mod:`repro.runtime.operators`).  The optimized plan
is cached in the same per-alphabet LRU entry as the other compilation
artifacts; :meth:`Spanner.explain` renders the logical → physical plan.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator

from repro.core.documents import DocumentCollection, as_text
from repro.core.mappings import Mapping
from repro.automata.analysis import AutomatonStatistics, statistics
from repro.automata.eva import ExtendedVA
from repro.automata.va import VariableSetAutomaton
from repro.algebra.expressions import SpannerExpression
from repro.counting.count import count_mappings
from repro.enumeration.evaluate import evaluate as run_evaluate
from repro.regex.ast import RegexNode
from repro.regex.parser import parse_regex
from repro.runtime.batch import run_batch as run_batch_compiled
from repro.runtime.compiled import CompiledEVA
from repro.runtime.resilience import FailureReport, ResiliencePolicy
from repro.runtime.engine import EvaluationScratch, evaluate_compiled_arena
from repro.runtime.plan import (
    ENGINE_CHOICES,
    KERNEL_CHOICES,
    CacheStats,
    ExecutionPlan,
    PlanCache,
    choose_plan,
)
from repro.runtime.runlength import count_subset_with_kernel, count_with_kernel
from repro.runtime.streaming import StreamingEvaluator
from repro.runtime.subset import CompiledSubsetEVA, evaluate_subset_arena
from repro.spanners.pipeline import CompilationPipeline, CompilationReport

__all__ = ["Spanner"]


class _CompiledState:
    """Everything compiled for one alphabet key, evicted as a unit."""

    __slots__ = (
        "sequential",
        "sequential_report",
        "automaton",
        "report",
        "runtime",
        "otf_runtime",
        "scratch",
        "plan",
        "stats",
        "optimized",
    )

    def __init__(self) -> None:
        self.sequential: ExtendedVA | None = None
        self.sequential_report: CompilationReport | None = None
        self.automaton: ExtendedVA | None = None
        self.report: CompilationReport | None = None
        self.runtime: CompiledEVA | None = None
        self.otf_runtime: CompiledSubsetEVA | None = None
        self.scratch: EvaluationScratch | None = None
        self.plan: ExecutionPlan | None = None
        self.stats: AutomatonStatistics | None = None
        self.optimized = None  # OptimizedPlan, physical tree prepared for the key


class Spanner:
    """A compiled document spanner with constant-delay evaluation."""

    def __init__(
        self,
        source: str | RegexNode | VariableSetAutomaton | ExtendedVA | SpannerExpression,
        alphabet: Iterable[str] = (),
        *,
        engine: str = "auto",
        kernel: str = "auto",
        max_cached_alphabets: int = 8,
        unchecked: bool = False,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
            )
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}"
            )
        if isinstance(source, str):
            source = parse_regex(source)
        self._pipeline = CompilationPipeline(source, alphabet)
        self._engine = engine
        self._kernel = kernel
        self._unchecked = unchecked
        # Fault-tolerance policy applied to every pooled execution this
        # spanner starts (process-mode run_batch).  ``None``
        # means the module default: retries plus inline fallback, no
        # quarantine, no resource budget.
        self._resilience = resilience
        # One LRU entry per alphabet key; the sequential eVA, deterministic
        # eVA, both compiled runtimes and the plan share the entry so a
        # single eviction drops them together.  The cache is the shared
        # PlanCache structure of the plan layer — thread-safe and counted,
        # so the server front-end can expose per-spanner hit ratios too.
        self._states: PlanCache[frozenset[str], _CompiledState] = PlanCache(
            max_cached_alphabets, name="spanner-alphabets"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_regex(
        cls, pattern: str | RegexNode, alphabet: Iterable[str] = (), **options
    ) -> "Spanner":
        """Build a spanner from a regex formula (text or AST)."""
        return cls(parse_regex(pattern), alphabet, **options)

    @classmethod
    def from_va(cls, automaton: VariableSetAutomaton, **options) -> "Spanner":
        """Build a spanner from a classic variable-set automaton."""
        return cls(automaton, **options)

    @classmethod
    def from_eva(cls, automaton: ExtendedVA, **options) -> "Spanner":
        """Build a spanner from an extended variable-set automaton."""
        return cls(automaton, **options)

    @classmethod
    def from_expression(
        cls, expression: SpannerExpression, alphabet: Iterable[str] = (), **options
    ) -> "Spanner":
        """Build a spanner from a spanner-algebra expression."""
        return cls(expression, alphabet, **options)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def source(self) -> object:
        """The original specification (regex AST, automaton or expression)."""
        return self._pipeline.source

    @property
    def engine(self) -> str:
        """The default evaluation engine (one of ``ENGINE_CHOICES``)."""
        return self._engine

    @property
    def kernel(self) -> str:
        """The default inner-loop kernel (one of ``KERNEL_CHOICES``).

        The axis applies to counting: ``auto``
        resolves per document from its measured run-length statistics;
        ``runlength`` forces the run-length kernels of
        :mod:`repro.runtime.runlength` on those paths (engines without a
        run-length path — ``reference`` and ``hybrid`` — reject it).
        Arenas (:meth:`preprocess`, :meth:`extract`) are always built by
        the scalar engine, whatever the kernel.
        """
        return self._kernel

    def variables(self) -> frozenset[str]:
        """The capture variables of the spanner."""
        return frozenset(self._pipeline.source.variables())

    def compiled(self, document: object = "") -> ExtendedVA:
        """The deterministic sequential eVA used to evaluate *document*."""
        return self._compiled_for(document)[0]

    def compilation_report(self, document: object = "") -> CompilationReport:
        """The per-stage report of the compilation used for *document*."""
        return self._compiled_for(document)[1]

    def statistics(self, document: object = "") -> AutomatonStatistics:
        """Size statistics of the compiled automaton."""
        return statistics(self.compiled(document), check_properties=True)

    def runtime(self, document: object = "") -> CompiledEVA:
        """The interned :class:`CompiledEVA` used to evaluate *document*."""
        return self._runtime_for_key(self._alphabet_key(document))

    def otf_runtime(self, document: object = "") -> CompiledSubsetEVA:
        """The lazily determinized runtime used by ``engine="compiled-otf"``."""
        return self._otf_runtime_for_key(self._alphabet_key(document))

    def plan(
        self,
        document: object = "",
        *,
        engine: str | None = None,
        kernel: str | None = None,
    ) -> ExecutionPlan:
        """The :class:`ExecutionPlan` that would evaluate *document*."""
        return self._plan_for_key(self._alphabet_key(document), engine, kernel)

    @property
    def max_cached_alphabets(self) -> int:
        """The bound of the per-alphabet compilation cache."""
        return self._states.max_entries

    def cached_alphabets(self) -> int:
        """How many alphabet keys currently sit in the compilation cache."""
        return len(self._states)

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the per-alphabet compilation cache."""
        return self._states.stats()

    def explain(self, document: object = "", *, engine: str | None = None) -> str:
        """Render the logical and physical plan that evaluates *document*.

        Shows the logical operator tree of the source (non-expression
        sources appear as a single atom), the rewrite rules that fired,
        the optimized tree annotated with estimated automaton sizes, the
        physical operator tree with each fused leaf's engine, and the
        resolved :class:`ExecutionPlan`.  This is what the ``repro
        explain`` CLI subcommand prints.
        """
        key = self._alphabet_key(document)
        plan = self._plan_for_key(key, engine)
        # Hybrid plans were prepared by _plan_for_key; a fully-fused plan
        # is rendered unprepared — its single leaf would recompile the
        # monolithic automaton that the "execution plan" line already
        # describes.
        optimized = self._optimized_for_key(key)
        source = repr(self._pipeline.source)
        if len(source) > 120:
            source = source[:117] + "..."
        lines = [f"source: {source}", "", optimized.explain(), ""]
        lines.append(f"execution plan: engine={plan.engine}")
        lines.append(f"reason: {plan.reason}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Per-alphabet compilation cache (bounded LRU)
    # ------------------------------------------------------------------ #

    def _alphabet_key(self, document: object) -> frozenset[str]:
        if self._pipeline.source_needs_alphabet():
            return frozenset(as_text(document))
        return frozenset()

    def _state_for_key(self, key: frozenset[str]) -> _CompiledState:
        return self._states.get_or_create(key, _CompiledState)

    def _sequential_for_key(
        self, key: frozenset[str]
    ) -> tuple[ExtendedVA, CompilationReport]:
        state = self._state_for_key(key)
        if state.sequential is None:
            state.sequential, state.sequential_report = (
                self._pipeline.compile_sequential(key)
            )
        return state.sequential, state.sequential_report

    def _compiled_for(self, document: object) -> tuple[ExtendedVA, CompilationReport]:
        return self._compiled_for_key(self._alphabet_key(document))

    def _compiled_for_key(self, key: frozenset[str]) -> tuple[ExtendedVA, CompilationReport]:
        state = self._state_for_key(key)
        if state.automaton is None:
            sequential, report = self._sequential_for_key(key)
            state.automaton, state.report = self._pipeline.determinize_stage(
                sequential, report.copy()
            )
        return state.automaton, state.report

    def _runtime_for_key(self, key: frozenset[str]) -> CompiledEVA:
        state = self._state_for_key(key)
        if state.runtime is None:
            automaton, report = self._compiled_for_key(key)
            state.runtime = self._pipeline.intern(automaton, report)
        return state.runtime

    def _scratch_for_key(self, key: frozenset[str]) -> EvaluationScratch:
        """The per-alphabet reusable :class:`EvaluationScratch`.

        Shared by the arena engine and :func:`count_compiled`, so repeated
        ``enumerate``/``count`` calls through the facade allocate no slot
        arrays.  A scratch is single-threaded, like the compilation cache
        it lives in.
        """
        state = self._state_for_key(key)
        if state.scratch is None:
            state.scratch = EvaluationScratch(self._runtime_for_key(key))
        return state.scratch

    def _otf_runtime_for_key(self, key: frozenset[str]) -> CompiledSubsetEVA:
        state = self._state_for_key(key)
        if state.otf_runtime is None:
            sequential, _report = self._sequential_for_key(key)
            state.otf_runtime = CompiledSubsetEVA(sequential)
        return state.otf_runtime

    def _optimized_for_key(self, key: frozenset[str], *, prepare: bool = False):
        """The cached :class:`OptimizedPlan` for *key*.

        The physical tree's fused leaves are only compiled when *prepare*
        is true — hybrid plans need them, but a fully-fused plan executes
        through the regular monolithic cache instead, so preparing its
        single leaf would compile the expression twice for nothing.
        """
        state = self._state_for_key(key)
        if state.optimized is None:
            state.optimized = self._pipeline.optimize_expression(
                key, unchecked=self._unchecked
            )
        if prepare:
            # Leaves compile over base ∪ key, exactly like the monolithic
            # pipeline (and the optimizer's own atom profiling) do.
            state.optimized.physical.prepare(self._pipeline.base_alphabet | key)
        return state.optimized

    def _reject_hybrid_streaming(self, key: frozenset[str]) -> None:
        """Refuse to stream an expression whose plan must be hybrid.

        When the optimizer cuts the expression tree, the monolithic
        fused automaton is not a sound substitute (joins over
        non-provably-functional operands silently lose mappings — the
        very reason hybrid plans exist), so streaming cannot quietly
        fall back to it the way whole-document evaluation never would.
        """
        if not isinstance(self._pipeline.source, SpannerExpression):
            return
        if self._optimized_for_key(key).is_hybrid:
            raise ValueError(
                "this expression optimizes to a hybrid operator plan, which "
                "cannot evaluate chunk-fed documents; evaluate whole "
                "documents (engine='hybrid'/'auto') instead"
            )

    def _plan_for_key(
        self,
        key: frozenset[str],
        engine: str | None,
        kernel: str | None = None,
    ) -> ExecutionPlan:
        engine = self._engine if engine is None else engine
        kernel = self._kernel if kernel is None else kernel
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
            )
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}"
            )
        # Expression sources consult the cost-based optimizer: when it cuts
        # the tree, both "auto" and the explicit "hybrid" run the physical
        # operator plan.  When it fuses everything (or the source is not an
        # expression at all), "hybrid" degrades to "auto" and the regular
        # automaton-statistics planner decides over the original monolithic
        # compilation (already cached alongside, and byte-identical to what
        # pre-optimizer versions produced).
        if engine in ("auto", "hybrid") and isinstance(
            self._pipeline.source, SpannerExpression
        ):
            optimized = self._optimized_for_key(key)
            if optimized.is_hybrid:
                self._optimized_for_key(key, prepare=True)
                state = self._state_for_key(key)
                if state.plan is None or state.plan.engine != "hybrid":
                    state.plan = ExecutionPlan(
                        "hybrid",
                        False,
                        "optimizer cut the expression tree: "
                        f"rewrites=[{', '.join(optimized.applied_rules) or 'none'}]",
                        operators=optimized.physical,
                    )
                # An explicit runlength kernel cannot ride a hybrid plan;
                # replace() re-validates and raises the plan-layer error.
                if state.plan.kernel != kernel:
                    return replace(state.plan, kernel=kernel)
                return state.plan
        if engine == "hybrid":
            engine = "auto"
        if engine != "auto":
            return choose_plan(engine=engine, kernel=kernel)
        state = self._state_for_key(key)
        if state.plan is None or state.plan.engine == "hybrid":
            state.plan = choose_plan(self._planner_stats(key), engine="auto")
        if state.plan.kernel != kernel:
            return replace(state.plan, kernel=kernel)
        return state.plan

    def _planner_stats(self, key: frozenset[str]) -> AutomatonStatistics:
        state = self._state_for_key(key)
        if state.stats is None:
            sequential, _report = self._sequential_for_key(key)
            state.stats = replace(
                statistics(sequential), deterministic=sequential.is_deterministic()
            )
        return state.stats

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def preprocess(
        self,
        document: object,
        *,
        engine: str | None = None,
        kernel: str | None = None,
    ):
        """Run only the preprocessing phase (Algorithm 1) on *document*.

        *engine* overrides the spanner's default.  The compiled engines
        return the flat :class:`~repro.runtime.dag.CompiledResultDag`
        arena (no ``DagNode`` objects are materialized); ``"reference"``
        returns the legacy object :class:`~repro.enumeration.evaluate.ResultDag`.
        Both support iteration, ``count()`` and ``is_empty()``.

        *kernel* is accepted and validated like everywhere else, but the
        arena is always built by the scalar engine: an arena's cost is
        its capture writes, which run-length stepping cannot skip.
        """
        key = self._alphabet_key(document)
        plan = self._plan_for_key(key, engine, kernel)
        if plan.engine == "hybrid":
            return plan.operators.execute(document)
        if plan.engine == "reference":
            automaton, _report = self._compiled_for_key(key)
            return run_evaluate(automaton, document, check_determinism=False)
        if plan.engine == "compiled-otf":
            return evaluate_subset_arena(self._otf_runtime_for_key(key), document)
        return evaluate_compiled_arena(
            self._runtime_for_key(key),
            document,
            scratch=self._scratch_for_key(key),
        )

    def enumerate(
        self,
        document: object,
        *,
        engine: str | None = None,
        kernel: str | None = None,
    ) -> Iterator[Mapping]:
        """Enumerate ``⟦γ⟧(d)`` with constant delay after linear preprocessing."""
        return iter(self.preprocess(document, engine=engine, kernel=kernel))

    def evaluate(
        self,
        document: object,
        *,
        engine: str | None = None,
        kernel: str | None = None,
    ) -> list[Mapping]:
        """Return the full list of output mappings."""
        return list(self.enumerate(document, engine=engine, kernel=kernel))

    def stream(
        self,
        *,
        alphabet: Iterable[str] = (),
        emit: str = "on_finish",
        engine: str | None = None,
        fast_path: bool = True,
        retain_settled: bool = True,
    ) -> StreamingEvaluator:
        """Open a chunk-fed evaluation of one document.

        Returns a :class:`~repro.runtime.streaming.StreamingEvaluator`:
        ``feed()`` it ``str`` or ``bytes`` chunks as they arrive and
        ``finish()`` it at end of stream.  Because the document is not
        known up front, wildcard patterns compile over *alphabet* (plus
        the spanner's base alphabet) instead of the document's own
        characters — declare every character the stream may carry.
        Characters outside it kill every run (the compiled engines'
        semantics); under ``emit="incremental"`` they raise once
        mappings have been delivered, since delivery cannot be
        retracted.  The plan layer resolves the engine with
        ``streaming=True`` — only ``"compiled"`` (or ``"auto"``) can
        stream.
        """
        plan = choose_plan(
            engine=self._engine if engine is None else engine, streaming=True
        )
        assert plan.streaming and plan.engine == "compiled"
        if self._pipeline.source_needs_alphabet():
            key = frozenset(alphabet)
        else:
            key = frozenset()
        self._reject_hybrid_streaming(key)
        # A stream holds its evaluator state across feeds, so it gets a
        # private scratch: the per-alphabet cached scratch may be
        # borrowed by interleaved enumerate/count calls meanwhile.
        # ``retain_settled=False`` keeps an unbounded tail's memory at
        # the in-flight state: feed() still returns settled mappings,
        # finish() just doesn't replay them.
        return StreamingEvaluator(
            self._runtime_for_key(key),
            emit=emit,
            fast_path=fast_path,
            retain_settled=retain_settled,
        )

    def run_batch(
        self,
        documents: DocumentCollection | Iterable[object],
        *,
        mode: str = "serial",
        engine: str | None = None,
        kernel: str | None = None,
        chunk_size: int = 16,
        max_workers: int | None = None,
        streaming: bool = False,
        stream_chunk_size: int = 65536,
        policy: ResiliencePolicy | None = None,
        report: FailureReport | None = None,
    ) -> Iterator[tuple[object, object]]:
        """Evaluate the spanner over many documents, compiling exactly once.

        The spanner is compiled over the *union* alphabet of the batch (a
        wildcard expands to every character any document contains, which is
        semantically transparent: transitions on characters a document does
        not contain can never fire).  Results stream as ``(doc_id,
        result)`` pairs in collection order; ``mode="processes"`` fans
        chunks of documents out to a multiprocessing pool, pickling the
        compiled automaton once per worker.  The engine is resolved through
        the planner exactly as for single documents; ``"compiled-otf"``
        reuses one :class:`CompiledSubsetEVA` across the whole batch, so
        subset rows discovered on one document are cache hits on the next.

        With ``streaming=True`` every document is fed to the compiled
        engine in ``stream_chunk_size``-character slices through the
        chunk-fed evaluator instead of being evaluated whole: results
        are identical (the streaming ``on_finish`` arena is array-equal
        to the whole-document one), but no whole-document class-id
        buffer is ever materialized, cutting each worker's peak memory
        to one encoded chunk plus the live arena.

        *policy* overrides the spanner's fault-tolerance policy for this
        batch (``None`` falls back to the spanner's ``resilience``
        option, then the module default); with ``policy.quarantine`` a
        *report* collects the quarantined documents and the
        retry/rebuild/fallback counters for the run.
        """
        documents = DocumentCollection.coerce(documents)
        if self._pipeline.source_needs_alphabet():
            key = documents.alphabet()
        else:
            key = frozenset()
        if streaming:
            plan = choose_plan(
                engine=self._engine if engine is None else engine,
                streaming=True,
                kernel=self._kernel if kernel is None else kernel,
            )
            self._reject_hybrid_streaming(key)
        else:
            plan = self._plan_for_key(key, engine, kernel)
        if plan.engine == "hybrid":
            compiled: object = plan.operators
        elif plan.engine == "compiled-otf":
            compiled = self._otf_runtime_for_key(key)
        else:
            compiled = self._runtime_for_key(key)
        return run_batch_compiled(
            compiled,
            documents,
            mode=mode,
            engine=plan.engine,
            kernel=plan.kernel,
            chunk_size=chunk_size,
            max_workers=max_workers,
            streaming=plan.streaming,
            stream_chunk_size=stream_chunk_size,
            policy=self._resilience if policy is None else policy,
            report=report,
        )

    def count(
        self,
        document: object,
        *,
        engine: str | None = None,
        kernel: str | None = None,
    ) -> int:
        """Count ``|⟦γ⟧(d)|`` with Algorithm 3 (no enumeration).

        The compiled engines run the integer rewrite of Algorithm 3 on
        their dense (or lazily discovered) tables; ``"reference"`` runs the
        original dict-based loop.

        *kernel* overrides the spanner's default inner loop — counting
        is where the axis applies: ``"runlength"``
        turns the count pass into a product of per-run matrices
        (:mod:`repro.runtime.runlength`) on both the dense and the lazily
        determinized tables; ``"auto"`` decides per document from its
        measured run statistics.
        """
        key = self._alphabet_key(document)
        plan = self._plan_for_key(key, engine, kernel)
        if plan.engine == "hybrid":
            # Cut-edge operators dedup while materializing, so the count is
            # the size of the (already deduplicated) result set.
            return plan.operators.execute(document).count()
        if plan.engine == "reference":
            automaton, _report = self._compiled_for_key(key)
            return count_mappings(automaton, document, check_determinism=False)
        if plan.engine == "compiled-otf":
            return count_subset_with_kernel(
                self._otf_runtime_for_key(key), document, kernel=plan.kernel
            )
        return count_with_kernel(
            self._runtime_for_key(key),
            document,
            kernel=plan.kernel,
            scratch=self._scratch_for_key(key),
        )

    def extract(
        self,
        document: object,
        *,
        engine: str | None = None,
        kernel: str | None = None,
    ) -> list[dict[str, str]]:
        """Return the extracted text per output mapping.

        Each output mapping becomes a dictionary from variable name to the
        captured substring — the most convenient form for downstream use.
        """
        text = as_text(document)
        return [
            mapping.contents(text)
            for mapping in self.enumerate(document, engine=engine, kernel=kernel)
        ]

    def __call__(self, document: object) -> list[Mapping]:
        return self.evaluate(document)

    def __repr__(self) -> str:
        return f"Spanner({self._pipeline.source!r})"
