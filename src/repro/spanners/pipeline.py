"""The compilation pipeline from a spanner specification to a deterministic seVA.

The pipeline mirrors Section 4 of the paper: regex formulas compile to VA,
VA convert to extended VA, algebra expressions compile bottom-up with the
operator constructions of Proposition 4.4, and the result is
sequentialized (if needed) and determinized so that the constant-delay
algorithm applies.  Each stage's size and wall-clock time are recorded in a
:class:`CompilationReport`, which the benchmarks use to reproduce the
paper's translation-cost statements (Propositions 4.1–4.6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.documents import OTHER
from repro.core.errors import CompilationError, ResourceLimitError
from repro.automata.analysis import AutomatonStatistics, is_sequential, statistics, trim
from repro.automata.eva import ExtendedVA
from repro.automata.transforms import (
    SUBSET_BUDGET,
    determinize,
    relabel_states,
    sequentialize,
    va_to_eva,
)
from repro.automata.va import VariableSetAutomaton
from repro.algebra.expressions import SpannerExpression
from repro.regex.ast import RegexNode
from repro.regex.compiler import compile_to_va
from repro.regex.parser import parse_regex
from repro.runtime.plan import ExecutionPlan

__all__ = ["CompilationPipeline", "CompilationReport", "StageReport"]

SpannerSource = "RegexNode | VariableSetAutomaton | ExtendedVA | SpannerExpression | str"


@dataclass(frozen=True)
class StageReport:
    """Size and timing of one pipeline stage."""

    name: str
    num_states: int
    num_transitions: int
    seconds: float

    @property
    def size(self) -> int:
        """States plus transitions after this stage."""
        return self.num_states + self.num_transitions


@dataclass
class CompilationReport:
    """The full record of one compilation run."""

    stages: list[StageReport] = field(default_factory=list)

    def record(self, name: str, automaton: VariableSetAutomaton | ExtendedVA, seconds: float) -> None:
        """Append a stage entry."""
        self.stages.append(
            StageReport(name, automaton.num_states, automaton.num_transitions, seconds)
        )

    def copy(self) -> "CompilationReport":
        """An independent report continuing from the same stages."""
        return CompilationReport(stages=list(self.stages))

    @property
    def total_seconds(self) -> float:
        """Total compilation time across stages."""
        return sum(stage.seconds for stage in self.stages)

    @property
    def final_stage(self) -> StageReport:
        """The last stage (the deterministic sequential eVA)."""
        if not self.stages:
            raise CompilationError("the pipeline has not produced any stage yet")
        return self.stages[-1]

    def summary(self) -> str:
        """A human-readable multi-line summary (used by the examples)."""
        lines = ["stage                     states  transitions   seconds"]
        for stage in self.stages:
            lines.append(
                f"{stage.name:<24} {stage.num_states:>7} {stage.num_transitions:>12} "
                f"{stage.seconds:>9.4f}"
            )
        return "\n".join(lines)


class CompilationPipeline:
    """Compile any supported spanner specification into a deterministic seVA."""

    def __init__(
        self,
        source: object,
        alphabet: Iterable[str] = (),
        *,
        check_functional_joins: bool = False,
    ) -> None:
        if isinstance(source, str):
            source = parse_regex(source)
        if not isinstance(
            source, (RegexNode, VariableSetAutomaton, ExtendedVA, SpannerExpression)
        ):
            raise CompilationError(f"unsupported spanner source {source!r}")
        self._source = source
        self._base_alphabet = frozenset(alphabet)
        self._check_functional_joins = check_functional_joins

    @property
    def source(self) -> object:
        """The original spanner specification."""
        return self._source

    def source_needs_alphabet(self) -> bool:
        """Whether compilation output depends on the document alphabet."""
        return any(
            isinstance(source, RegexNode) and source.needs_alphabet()
            for source in self._atom_sources()
        )

    def compile_alphabet(self) -> frozenset[str]:
        """The one alphabet a :class:`~repro.spanners.Spanner` compiles over.

        A source without wildcards or negated classes compiles over the
        base alphabet (its own letters are added anyway).  Otherwise the
        alphabet is the base alphabet, every letter any atom of the source
        names, and :data:`~repro.core.documents.OTHER`, which stands for
        every letter it does not name.  All the characters OTHER stands
        for take the same transitions, so the automaton's semantics over
        any document equal those of a compilation over that document's
        own characters.
        """
        if not self.source_needs_alphabet():
            return self._base_alphabet
        named = set(self._base_alphabet)
        for source in self._atom_sources():
            named.update(
                source.literals() if isinstance(source, RegexNode) else source.alphabet()
            )
        return frozenset(named) | {OTHER}

    def _atom_sources(self) -> list:
        if isinstance(self._source, SpannerExpression):
            return [atom.source for atom in self._source.atoms()]
        return [self._source]

    def compile_sequential(
        self, extra_alphabet: Iterable[str] = ()
    ) -> tuple[ExtendedVA, CompilationReport]:
        """Run the pipeline up to (and including) sequentialization.

        The result is a *sequential but possibly non-deterministic* eVA —
        the input format of the on-the-fly subset runtime and of
        :meth:`determinize_or_defer`.  :meth:`compile` continues from here.
        """
        alphabet = self._base_alphabet | frozenset(extra_alphabet)
        report = CompilationReport()

        extended, assume_sequential = self._to_extended(alphabet, report)

        start = time.perf_counter()
        sequential = assume_sequential or is_sequential(extended)
        if not sequential:
            extended = sequentialize(extended)
            report.record("sequentialize", extended, time.perf_counter() - start)
        else:
            extended = trim(extended)
            report.record("trim", extended, time.perf_counter() - start)
        return extended, report

    def determinize_stage(
        self,
        extended: ExtendedVA,
        report: CompilationReport,
        budget: int | None,
    ) -> tuple[ExtendedVA, CompilationReport]:
        """Determinize (if needed) and relabel a sequential eVA.

        Appends its stage entry to *report* and returns the deterministic
        seVA.  Callers that cached the :meth:`compile_sequential` output
        (the :class:`~repro.spanners.Spanner` facade does, so it never runs
        the front of the pipeline twice) pass a *copy* of the sequential
        report to keep the two records independent.  The subset
        construction stops with
        :class:`~repro.core.errors.ResourceLimitError` past *budget*
        subsets (``None``: unbounded, as :meth:`compile` runs it).
        """
        start = time.perf_counter()
        if not extended.is_deterministic():
            extended = determinize(extended, budget)
            extended = relabel_states(extended)
            report.record("determinize", extended, time.perf_counter() - start)
        else:
            extended = relabel_states(extended)
            report.record("relabel", extended, time.perf_counter() - start)
        return extended, report

    def determinize_or_defer(
        self, extended: ExtendedVA, report: CompilationReport
    ) -> tuple[ExecutionPlan, tuple[ExtendedVA, CompilationReport] | None]:
        """The ``auto`` plan of a sequential eVA, with its dense form if any.

        The subset construction decides: within
        :data:`~repro.automata.transforms.SUBSET_BUDGET` the plan is
        ``compiled`` and carries the deterministic seVA; past it the plan
        is ``compiled-otf`` (the paper's Section 4 closing remark).  The
        facade and every fused leaf of a hybrid plan call this one method.
        """
        try:
            compiled = self.determinize_stage(extended, report, SUBSET_BUDGET)
        except ResourceLimitError as error:
            return ExecutionPlan("compiled-otf", False, f"{error}: determinize on the fly"), None
        stage = report.final_stage
        reason = (
            "already deterministic: dense tables at no extra cost"
            if stage.name == "relabel"
            else f"subset construction built {stage.num_states} states: dense tables"
        )
        return ExecutionPlan("compiled", True, reason), compiled

    def compile(
        self, extra_alphabet: Iterable[str] = ()
    ) -> tuple[ExtendedVA, CompilationReport]:
        """Run the full pipeline and return the deterministic seVA plus a report."""
        extended, report = self.compile_sequential(extra_alphabet)
        return self.determinize_stage(extended, report, None)

    def intern(self, extended: ExtendedVA, report: CompilationReport):
        """Intern a pipeline-produced deterministic seVA into dense tables.

        The single place where a :class:`CompiledEVA` is built and its cost
        recorded as an ``"intern"`` stage — both :meth:`compile_runtime`
        and the :class:`~repro.spanners.Spanner` facade funnel through it.
        """
        from repro.runtime.compiled import compile_eva

        start = time.perf_counter()
        compiled = compile_eva(extended, check_determinism=False)
        report.record("intern", extended, time.perf_counter() - start)
        return compiled

    def optimize_expression(self, extra_alphabet: Iterable[str] = (), **options):
        """Run the cost-based expression optimizer for this source.

        Returns the :class:`~repro.algebra.optimizer.OptimizedPlan` whose
        physical tree still needs :meth:`PhysicalOperator.prepare` for the
        alphabet (the :class:`~repro.spanners.Spanner` facade prepares and
        caches it once).  Non-expression sources are wrapped in an
        :class:`~repro.algebra.expressions.Atom`, so ``repro explain`` can
        render the (trivial) plan of a plain regex or automaton spanner.
        *options* are forwarded to :func:`repro.algebra.optimizer.optimize`
        (``unchecked``, thresholds, ``enable_rewrites``).
        """
        from repro.algebra.expressions import Atom
        from repro.algebra.optimizer import optimize

        source = self._source
        if not isinstance(source, SpannerExpression):
            source = Atom(source)
        alphabet = self._base_alphabet | frozenset(extra_alphabet)
        return optimize(source, alphabet, **options)

    def compile_runtime(self, extra_alphabet: Iterable[str] = ()):
        """Run the pipeline and intern the result into a :class:`CompiledEVA`.

        This is the compile-once entry point of the batch engine: the dense
        integer tables are built a single time here and then reused across
        every document (and pickled once per worker in process mode).  The
        interning cost is recorded as its own pipeline stage.
        """
        extended, report = self.compile(extra_alphabet)
        return self.intern(extended, report), report

    def _to_extended(
        self, alphabet: frozenset[str], report: CompilationReport
    ) -> tuple[ExtendedVA, bool]:
        """Produce the initial extended VA and whether it is known sequential."""
        source = self._source
        if isinstance(source, RegexNode):
            start = time.perf_counter()
            automaton = compile_to_va(source, alphabet)
            report.record("regex→VA", automaton, time.perf_counter() - start)
            start = time.perf_counter()
            extended = va_to_eva(automaton)
            report.record("VA→eVA", extended, time.perf_counter() - start)
            return extended, False
        if isinstance(source, VariableSetAutomaton):
            start = time.perf_counter()
            extended = va_to_eva(source)
            report.record("VA→eVA", extended, time.perf_counter() - start)
            return extended, False
        if isinstance(source, ExtendedVA):
            report.record("eVA", source, 0.0)
            return source, False
        if isinstance(source, SpannerExpression):
            from repro.algebra.compile import compile_expression

            start = time.perf_counter()
            extended = compile_expression(
                source, alphabet, check_functional_joins=self._check_functional_joins
            )
            report.record("algebra→eVA", extended, time.perf_counter() - start)
            return extended, False
        raise CompilationError(f"unsupported spanner source {source!r}")

    def statistics(self, extra_alphabet: Iterable[str] = ()) -> AutomatonStatistics:
        """Statistics of the compiled deterministic seVA."""
        compiled, _report = self.compile(extra_alphabet)
        return statistics(compiled, check_properties=True)
