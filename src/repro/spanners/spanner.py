"""The :class:`Spanner` facade — the library's main entry point.

A :class:`Spanner` wraps any supported specification (regex formula text or
AST, classic VA, extended VA, or an algebra expression) and exposes the
evaluation operations of the paper:

* :meth:`Spanner.enumerate` — constant-delay enumeration after linear-time
  preprocessing (Algorithms 1 and 2),
* :meth:`Spanner.evaluate` — the materialized list of output mappings,
* :meth:`Spanner.count` — output counting in ``O(|A| × |d|)`` (Algorithm 3),
* :meth:`Spanner.extract` — convenience extraction of the captured text.

Compilation into a sequential eVA happens lazily, once per pattern:
wildcards and negated classes expand over the letters the pattern names
plus one :data:`~repro.core.documents.OTHER` symbol standing for every
other character (the alphabet partition of symbolic automata), so no
request hashes its document's alphabet and no document recompiles.  Every
compiled request runs that eVA through one lazily determinized
:class:`~repro.runtime.subset.CompiledSubsetEVA` (the paper's Section 4
closing remark): no request determinizes up front, and only the subsets
documents reach are built.  Past
:data:`~repro.runtime.subset.SUBSET_CAP` subsets the spanner hands out a
fresh generation at the next call, so a long-lived spanner's memory stays
bounded.  Only ``engine="reference"`` compiles over each document's own
characters and determinizes without a bound, in a small private memo, so
that it stays an oracle independent of ``OTHER``.

Documents flow down to the engines as objects: every compiled engine
translates them once per alphabet-classing signature into a cached
class-id buffer (:mod:`repro.runtime.encoding`), so calling
:meth:`Spanner.enumerate`, :meth:`Spanner.count` and
:meth:`Spanner.extract` on the same :class:`~repro.core.documents.Document`
pays a single C-level encoding pass.  An evaluation keeps its loop state
to itself and the compiled tables only grow interned active sets and
their plans, so one spanner may serve many threads at once.

Evaluation goes through the :class:`~repro.runtime.plan.ExecutionPlan`
layer.  ``engine="auto"`` (the default) runs the compiled automaton
(``"compiled"``, also named ``"compiled-otf"``), which is cross-checked
against the dict-based reference loop (``"reference"``).  Multi-document
workloads go through :meth:`Spanner.run_batch`, which compiles once and
streams every document through the same tables.

Spanner-algebra expression sources additionally go through the cost-based
optimizer (:mod:`repro.algebra.optimizer`): under ``engine="auto"`` (or
the explicit ``"hybrid"``) the expression tree is rewritten (projection
pushdown, union/join flattening, join reordering) and each operator either
fuses into an automaton (Proposition 4.4) or cuts into a runtime operator
over result arenas (:mod:`repro.runtime.operators`).  The optimized plan
is kept beside the other compilation artifacts; :meth:`Spanner.explain`
renders the logical → physical plan.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.documents import DocumentCollection, as_text
from repro.core.errors import CompilationError
from repro.core.mappings import Mapping
from repro.automata.analysis import AutomatonStatistics, statistics
from repro.automata.eva import ExtendedVA
from repro.automata.va import VariableSetAutomaton
from repro.algebra.expressions import SpannerExpression
from repro.regex.ast import RegexNode
from repro.regex.parser import parse_regex
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.plan import (
    ENGINE_CHOICES,
    CacheStats,
    ExecutionPlan,
    PlanCache,
    choose_plan,
)
from repro.runtime.runlength import resolve_kernel
from repro.runtime.subset import CompiledSubsetEVA
from repro.spanners.pipeline import CompilationPipeline, CompilationReport

if TYPE_CHECKING:
    from repro.runtime.resilience import FailureReport, ResiliencePolicy
    from repro.runtime.streaming import StreamingEvaluator

__all__ = ["Spanner"]


#: How many per-document-alphabet automata the reference engine keeps.
_REFERENCE_MEMO = 4


class Spanner:
    """A compiled document spanner with constant-delay evaluation."""

    def __init__(
        self,
        source: str | RegexNode | VariableSetAutomaton | ExtendedVA | SpannerExpression,
        alphabet: Iterable[str] = (),
        *,
        engine: str = "auto",
        kernel: str = "auto",
        unchecked: bool = False,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
            )
        resolve_kernel(kernel)
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
        self._alphabet = self._pipeline.compile_alphabet()
        self._reference: PlanCache[frozenset[str], ExtendedVA] = PlanCache(
            _REFERENCE_MEMO, name="reference-alphabets"
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
        """The ``kernel=`` name the spanner was built with.

        ``"auto"``, ``"scalar"`` and ``"runlength"`` are accepted for
        compatibility and select nothing: every compiled engine counts
        with one loop that picks run powers per run
        (:func:`repro.runtime.kernel.count_loop`).
        """
        return self._kernel

    def variables(self) -> frozenset[str]:
        """The capture variables of the spanner."""
        return frozenset(self._pipeline.source.variables())

    # The accessors below take a *document* argument for compatibility
    # and ignore it: every document is evaluated by the same compilation.

    def compiled(self, document: object = "") -> ExtendedVA:
        """The spanner's deterministic sequential eVA, for introspection.

        Determinized up front and without a bound on first call; no
        request runs it (they determinize on the fly, see :meth:`runtime`).
        """
        return self._deterministic[0]

    def compilation_report(self, document: object = "") -> CompilationReport:
        """The per-stage report of what every compiled request runs: the
        stages up to the sequential eVA, then the lazily determinized
        automaton's construction as ``"intern"``."""
        return self._interned[1]

    def statistics(self, document: object = "") -> AutomatonStatistics:
        """Size statistics of the deterministic automaton (:meth:`compiled`)."""
        return statistics(self.compiled(), check_properties=True)

    def runtime(self, document: object = "") -> CompiledSubsetEVA:
        """The lazily determinized automaton every compiled request runs.

        Once it holds more than :data:`~repro.runtime.subset.SUBSET_CAP`
        subsets, the next call gets a fresh generation; arenas built
        earlier keep the one they were built on, and streams move to the
        new one between reads.
        """
        runtime, report = self._interned
        renewed = runtime.renewed()
        if renewed is not runtime:
            self._interned = (renewed, report)
        return renewed

    def plan(
        self,
        document: object = "",
        *,
        engine: str | None = None,
        kernel: str | None = None,
    ) -> ExecutionPlan:
        """The :class:`ExecutionPlan` that evaluates documents."""
        return self._plan(engine, kernel)

    def cache_stats(self) -> CacheStats:
        """Counters of the spanner's one compilation.

        ``misses`` is 1 once the spanner has compiled and 0 before; there
        is nothing to hit, evict or bound, since every request reuses
        that compilation.  The reference engine's per-document memo is
        not counted.
        """
        built = int("_sequential" in vars(self) or "_optimized" in vars(self))
        return CacheStats(
            hits=0, misses=built, evictions=0, entries=built, max_entries=1
        )

    def explain(self, document: object = "", *, engine: str | None = None) -> str:
        """Render the logical and physical plan that evaluates *document*.

        Shows the logical operator tree of the source (non-expression
        sources appear as a single atom), the rewrite rules that fired,
        the optimized tree annotated with estimated automaton sizes, the
        physical operator tree with each fused leaf's engine, and the
        resolved :class:`ExecutionPlan`.  This is what the ``repro
        explain`` CLI subcommand prints.
        """
        plan = self._plan(engine)
        # Hybrid plans were prepared by _auto_plan; a fully-fused plan is
        # rendered unprepared — its single leaf would recompile the
        # monolithic automaton that the "execution plan" line already
        # describes.
        optimized = self._optimized
        source = repr(self._pipeline.source)
        if len(source) > 120:
            source = source[:117] + "..."
        lines = [f"source: {source}", "", optimized.explain(), ""]
        lines.append(f"execution plan: engine={plan.engine}")
        lines.append(f"reason: {plan.reason}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # The one compilation, built lazily, artifact by artifact
    # ------------------------------------------------------------------ #

    @cached_property
    def _sequential(self) -> tuple[ExtendedVA, CompilationReport]:
        return self._pipeline.compile_sequential(self._alphabet)

    @cached_property
    def _interned(self) -> tuple[CompiledSubsetEVA, CompilationReport]:
        """The current generation of the lazy automaton, and the report of
        the stages that built the first one."""
        sequential, report = self._sequential
        report = report.copy()
        start = time.perf_counter()
        runtime = CompiledSubsetEVA(sequential)
        report.record("intern", sequential, time.perf_counter() - start)
        return runtime, report

    @cached_property
    def _deterministic(self) -> tuple[ExtendedVA, CompilationReport]:
        sequential, report = self._sequential
        return self._pipeline.determinize_stage(sequential, report.copy())

    @cached_property
    def _optimized(self):
        """The :class:`OptimizedPlan` of the source, its leaves unprepared.

        Only a hybrid plan prepares (compiles) the fused leaves; a
        fully-fused plan executes through the monolithic compilation, so
        preparing its single leaf would compile the expression twice.
        """
        return self._pipeline.optimize_expression(
            self._alphabet, unchecked=self._unchecked
        )

    @cached_property
    def _auto_plan(self) -> ExecutionPlan:
        """The plan ``engine="auto"`` (and ``"hybrid"``) resolves to.

        Expression sources consult the cost-based optimizer: when it cuts
        the tree, the plan runs the physical operator tree, its leaves
        compiled over the spanner's alphabet.  Otherwise the plan runs the
        compiled automaton, and ``"hybrid"`` degrades to ``"auto"`` over
        the monolithic compilation.
        """
        if isinstance(self._pipeline.source, SpannerExpression):
            optimized = self._optimized
            if optimized.is_hybrid:
                rules = ", ".join(optimized.applied_rules) or "none"
                return ExecutionPlan(
                    "hybrid",
                    f"optimizer cut the expression tree: rewrites=[{rules}]",
                    operators=optimized.physical.prepare(self._alphabet),
                )
        return choose_plan(engine="auto")

    def _reference_automaton(self, document: object) -> ExtendedVA:
        """The deterministic eVA ``engine="reference"`` runs on *document*.

        Wildcards expand over the document's own characters
        (:func:`~repro.regex.compiler.required_alphabet`), not over
        ``OTHER``, so the reference engine stays an independent oracle
        for the compiled ones.  Its subset construction is unbounded, as
        an oracle's must be.  A few alphabets are memoized.
        """
        key = (
            frozenset(as_text(document))
            if self._pipeline.source_needs_alphabet()
            else frozenset()
        )
        return self._reference.get_or_create(
            key, lambda: self._pipeline.compile(key)[0]
        )

    def _reject_hybrid_streaming(self) -> None:
        """Refuse to stream an expression whose plan must be hybrid.

        When the optimizer cuts the expression tree, the monolithic
        fused automaton is not a sound substitute (joins over
        non-provably-functional operands silently lose mappings — the
        very reason hybrid plans exist), so streaming cannot quietly
        fall back to it the way whole-document evaluation never would.
        """
        if not isinstance(self._pipeline.source, SpannerExpression):
            return
        if self._optimized.is_hybrid:
            raise ValueError(
                "this expression optimizes to a hybrid operator plan, which "
                "cannot evaluate chunk-fed documents; evaluate whole "
                "documents (engine='hybrid'/'auto') instead"
            )

    def _plan(self, engine: str | None, kernel: str | None = None) -> ExecutionPlan:
        engine = self._engine if engine is None else engine
        if kernel is not None:
            resolve_kernel(kernel)
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
            )
        if engine not in ("auto", "hybrid"):
            return choose_plan(engine=engine)
        return self._auto_plan

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
        *kernel* is checked and ignored.
        """
        plan = self._plan(engine, kernel)
        if plan.engine == "hybrid":
            return plan.operators.execute(document)
        if plan.engine == "reference":
            from repro.enumeration.evaluate import evaluate as run_evaluate

            return run_evaluate(
                self._reference_automaton(document), document, check_determinism=False
            )
        return evaluate_compiled_arena(self.runtime(), document)

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
        ``finish()`` it at end of stream.  The stream runs the spanner's
        one compilation, whose ``OTHER`` symbol covers every character
        the pattern does not name, so any character may arrive and the
        result equals whole-document evaluation.  *alphabet* is accepted
        and validated (an iterable of characters) but no longer needed.
        The plan layer resolves the engine with ``streaming=True``: only
        the compiled automaton (``"auto"``, ``"compiled"`` or
        ``"compiled-otf"``) can stream.
        """
        plan = choose_plan(
            engine=self._engine if engine is None else engine, streaming=True
        )
        assert plan.streaming and plan.engine == "compiled"
        if any(not isinstance(char, str) or len(char) != 1 for char in alphabet):
            raise CompilationError("alphabet members must be single characters")
        self._reject_hybrid_streaming()
        # ``retain_settled=False`` keeps an unbounded tail's memory at
        # the in-flight state: feed() still returns settled mappings,
        # finish() just doesn't replay them.
        from repro.runtime.streaming import StreamingEvaluator

        return StreamingEvaluator(
            self.runtime(),
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

        Every document runs the spanner's one compilation (its ``OTHER``
        symbol covers the characters the pattern does not name), so the
        batch neither scans its documents' alphabets nor recompiles.
        Results stream as ``(doc_id, result)`` pairs in collection order; ``mode="processes"`` fans
        chunks of documents out to a multiprocessing pool, pickling the
        compiled automaton once per worker.  The engine is resolved through
        the planner exactly as for single documents; the compiled engine
        reuses one :class:`CompiledSubsetEVA` across the batch, so subset
        rows discovered on one document are cache hits on the next (a
        generation past :data:`~repro.runtime.subset.SUBSET_CAP` subsets
        is renewed between documents).

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
        if streaming:
            if kernel is not None:
                resolve_kernel(kernel)
            plan = choose_plan(
                engine=self._engine if engine is None else engine, streaming=True
            )
            self._reject_hybrid_streaming()
        else:
            plan = self._plan(engine, kernel)
        compiled = plan.operators if plan.engine == "hybrid" else self.runtime()
        from repro.runtime.batch import run_batch

        return run_batch(
            compiled,
            documents,
            mode=mode,
            engine=plan.engine,
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

        The compiled engine runs the integer rewrite of Algorithm 3 on the
        lazily discovered tables; ``"reference"`` runs the original
        dict-based loop.  Long runs of one character class cost
        ``O(log k)`` inside the compiled loop; *kernel* is checked and
        ignored.
        """
        plan = self._plan(engine, kernel)
        if plan.engine == "hybrid":
            # Cut-edge operators dedup while materializing, so the count is
            # the size of the (already deduplicated) result set.
            return plan.operators.execute(document).count()
        if plan.engine == "reference":
            from repro.counting.count import count_mappings

            return count_mappings(
                self._reference_automaton(document), document, check_determinism=False
            )
        return count_compiled(self.runtime(), document)

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

