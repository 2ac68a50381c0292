"""Physical operators executing algebra *cut edges* on result arenas.

The optimizer (:mod:`repro.algebra.optimizer`) may decide that part of an
algebra expression should **not** be fused into one automaton (the
quadratic product of Proposition 4.4 followed by a potentially exponential
determinization) but instead be evaluated at runtime, the route of
Propositions 4.5/4.6: evaluate the fused fragments independently and
combine their mapping sets.  This module is that runtime:

* :class:`FusedLeaf` — a fused subexpression, compiled once for the
  spanner's alphabet through the regular :class:`~repro.spanners.pipeline.CompilationPipeline`
  and evaluated on its own lazily determinized automaton; its output is a
  :class:`~repro.runtime.dag.CompiledResultDag` arena.
* :class:`HashJoin` — hash join on the shared variables of the operand
  schemas (hash table built from the smaller side, probed with the larger).
* :class:`MergeUnion` — k-way union with dedup across all operands.
* :class:`ArenaProject` — projection executed directly on the arena cells:
  the integer walk of Algorithm 2 decodes only the *kept* variables'
  markers, so dropped captures never materialize a span.

A prepared operator tree is picklable (its leaves hold the same
``CompiledSubsetEVA`` tables the batch engine already ships once per
worker), which is what makes physical plans portable across
the process pool — see :func:`repro.runtime.batch.run_batch` with
``engine="hybrid"``.

Operators pass the document *object* down unchanged: each fused leaf's
engine pulls the shared class-id buffer from the document's encoding cache
(:mod:`repro.runtime.encoding`), so two leaves with the same alphabet
classing — or repeated executions of one plan over one document — trigger
a single encoding pass per signature instead of one per leaf invocation.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.documents import as_text
from repro.core.errors import EvaluationError
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.algebra.operators import hash_join_mappings
from repro.runtime.dag import CompiledResultDag
from repro.runtime.subset import CompiledSubsetEVA

__all__ = [
    "ArenaProject",
    "FusedLeaf",
    "HashJoin",
    "MergeUnion",
    "OperatorResult",
    "PhysicalOperator",
    "hash_join_mappings",
    "merge_union_mappings",
    "project_arena",
    "render_physical",
]


# ---------------------------------------------------------------------- #
# The materialized result of a cut-edge operator
# ---------------------------------------------------------------------- #


class OperatorResult:
    """The output of a physical operator: a deduplicated mapping set.

    Duck-compatible with the arena result for everything downstream code
    uses — iteration, :meth:`mappings`, :meth:`count`, :meth:`is_empty` and
    :attr:`document_length` — and ships across process boundaries through
    :meth:`to_portable` / :meth:`from_portable` (plain tuples of ints and
    strings, like the arena's portable form).
    """

    __slots__ = ("document_length", "_mappings")

    def __init__(self, mappings: Iterable[Mapping], document_length: int) -> None:
        self._mappings = tuple(mappings)
        self.document_length = document_length

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self._mappings)

    def mappings(self) -> Iterator[Mapping]:
        """Iterate over the output mappings."""
        return iter(self._mappings)

    def count(self) -> int:
        """The number of output mappings."""
        return len(self._mappings)

    def is_empty(self) -> bool:
        """Whether the operator produced no output mapping at all."""
        return not self._mappings

    def to_portable(self) -> tuple:
        """Flatten into picklable tuples (mirrors the arena's portable form)."""
        return (
            self.document_length,
            tuple(
                tuple(
                    (variable, span.begin, span.end)
                    for variable, span in sorted(mapping.items())
                )
                for mapping in self._mappings
            ),
        )

    @classmethod
    def from_portable(cls, portable: tuple) -> "OperatorResult":
        """Rebuild a result from :meth:`to_portable` output."""
        document_length, rows = portable
        return cls(
            (
                Mapping({variable: Span(begin, end) for variable, begin, end in row})
                for row in rows
            ),
            document_length,
        )

    def __repr__(self) -> str:
        return f"OperatorResult({len(self._mappings)} mappings)"


# ---------------------------------------------------------------------- #
# Mapping-set combinators (the runtime side of Propositions 4.5/4.6)
# ---------------------------------------------------------------------- #


def merge_union_mappings(operands: Iterable[Iterable[Mapping]]) -> list[Mapping]:
    """K-way union with dedup, in first-seen order across the operands."""
    seen: set[Mapping] = set()
    out: list[Mapping] = []
    for operand in operands:
        for mapping in operand:
            if mapping not in seen:
                seen.add(mapping)
                out.append(mapping)
    return out


def project_arena(result, keep: Iterable[str]) -> Iterator[Mapping]:
    """``π_Y`` directly over a result's cells — without decoding dropped spans.

    For a :class:`CompiledResultDag` this delegates to the arena walk of
    :meth:`CompiledResultDag.mappings` with its ``keep`` filter: the
    marker decode step skips every variable outside *keep*, so
    projected-away captures never allocate a
    :class:`~repro.core.spans.Span`.  The caller deduplicates (projection
    can collapse distinct runs onto one mapping).  Non-arena inputs (an
    upstream :class:`OperatorResult`) fall back to mapping restriction.
    """
    keep = frozenset(keep)
    if isinstance(result, CompiledResultDag):
        yield from result.mappings(keep=keep)
        return
    for mapping in result:
        yield mapping.restrict(keep)


# ---------------------------------------------------------------------- #
# The physical operator tree
# ---------------------------------------------------------------------- #


class PhysicalOperator:
    """Base class of physical plan nodes.

    ``reason`` records the optimizer's justification for placing the node
    (rendered by ``repro explain``).  A tree must be :meth:`prepare`-d for
    an alphabet key before :meth:`execute` runs a document through it.
    """

    def __init__(self, reason: str = "") -> None:
        self.reason = reason

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def prepare(self, alphabet: frozenset[str]) -> "PhysicalOperator":
        """Compile every fused leaf for *alphabet* (idempotent per key)."""
        for child in self.children():
            child.prepare(alphabet)
        return self

    def execute(self, document: object):
        """Evaluate *document*, returning an arena or an :class:`OperatorResult`."""
        raise NotImplementedError

    def label(self) -> str:
        """One-line description for :func:`render_physical`."""
        raise NotImplementedError

    def leaves(self) -> Iterator["FusedLeaf"]:
        """The fused leaves of the subtree, left to right."""
        for child in self.children():
            yield from child.leaves()


class FusedLeaf(PhysicalOperator):
    """A fused subexpression, compiled once for an alphabet and run as a unit.

    The leaf owns a private :class:`CompilationPipeline` over its (already
    rewritten) expression fragment; :meth:`prepare` compiles it to a
    sequential eVA and interns that into a lazily determinized
    :class:`~repro.runtime.subset.CompiledSubsetEVA`, exactly like the
    facade does for monolithic sources.  :meth:`execute` takes the
    automaton's next generation once it passes
    :data:`~repro.runtime.subset.SUBSET_CAP` subsets.
    """

    def __init__(self, expression, reason: str = "") -> None:
        super().__init__(reason)
        self.expression = expression
        self.runtime = None
        self._alphabet: frozenset[str] | None = None

    def prepare(self, alphabet: frozenset[str]) -> "FusedLeaf":
        alphabet = frozenset(alphabet)
        if self.runtime is not None and self._alphabet == alphabet:
            return self
        # Imported here: the pipeline imports the algebra package, which
        # must be importable before this runtime module's class bodies run.
        from repro.spanners.pipeline import CompilationPipeline

        sequential, _report = CompilationPipeline(
            self.expression, alphabet
        ).compile_sequential()
        self.runtime = CompiledSubsetEVA(sequential)
        self._alphabet = alphabet
        return self

    def execute(self, document: object) -> CompiledResultDag:
        if self.runtime is None:
            raise EvaluationError("a FusedLeaf must be prepared before execution")
        from repro.runtime.engine import evaluate_compiled_arena

        runtime = self.runtime = self.runtime.renewed()
        return evaluate_compiled_arena(runtime, document)

    def label(self) -> str:
        if self.runtime is None:
            engine = "not compiled yet"
        else:
            engine = f"compiled, {self.runtime.num_states} states"
        text = repr(self.expression)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"fused[{engine}] {text}"

    def leaves(self) -> Iterator["FusedLeaf"]:
        yield self

    def __getstate__(self) -> dict:
        return {
            "expression": self.expression,
            "reason": self.reason,
            "runtime": self.runtime,
            "_alphabet": self._alphabet,
        }

    def __setstate__(self, state: dict) -> None:
        self.expression = state["expression"]
        self.reason = state["reason"]
        self.runtime = state["runtime"]
        self._alphabet = state["_alphabet"]


class HashJoin(PhysicalOperator):
    """Natural join of the operand results, left to right."""

    def __init__(self, operands: Iterable[PhysicalOperator], reason: str = "") -> None:
        super().__init__(reason)
        self.operands = tuple(operands)
        if len(self.operands) < 2:
            raise EvaluationError("HashJoin requires at least two operands")

    def children(self) -> tuple[PhysicalOperator, ...]:
        return self.operands

    def execute(self, document: object) -> OperatorResult:
        # Operands are evaluated lazily, left to right: as soon as an
        # intermediate join result is empty the remaining operands are
        # never run — a selectivity short-circuit the fused automaton
        # route cannot perform (it always walks the full product).
        document_length = len(as_text(document))
        joined = list(self.operands[0].execute(document))
        for operand in self.operands[1:]:
            if not joined:
                break
            joined = hash_join_mappings(joined, operand.execute(document))
        return OperatorResult(joined, document_length)

    def label(self) -> str:
        return f"hash-join ({len(self.operands)}-way)"


class MergeUnion(PhysicalOperator):
    """K-way union of the operand results, with dedup."""

    def __init__(self, operands: Iterable[PhysicalOperator], reason: str = "") -> None:
        super().__init__(reason)
        self.operands = tuple(operands)
        if len(self.operands) < 2:
            raise EvaluationError("MergeUnion requires at least two operands")

    def children(self) -> tuple[PhysicalOperator, ...]:
        return self.operands

    def execute(self, document: object) -> OperatorResult:
        document_length = len(as_text(document))
        return OperatorResult(
            merge_union_mappings(
                operand.execute(document) for operand in self.operands
            ),
            document_length,
        )

    def label(self) -> str:
        return f"merge-union ({len(self.operands)}-way)"


class ArenaProject(PhysicalOperator):
    """``π_Y`` over the child's result cells, with dedup.

    In optimizer-built plans the child is always a *cut* operator (an
    :class:`OperatorResult`): when a projection's child is fusible, fusing
    the projection into the leaf automaton (Proposition 4.4's linear
    construction) strictly dominates materializing the unprojected arena,
    so the optimizer never emits ``ArenaProject(FusedLeaf)``.  The arena
    input path (the ``keep``-filtered walk of
    :meth:`CompiledResultDag.mappings`) serves direct projections over
    leaf arenas in hand-built plans.
    """

    def __init__(self, child: PhysicalOperator, keep: Iterable[str], reason: str = "") -> None:
        super().__init__(reason)
        self.child = child
        self.keep = frozenset(keep)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, document: object) -> OperatorResult:
        result = self.child.execute(document)
        seen: set[Mapping] = set()
        out: list[Mapping] = []
        for mapping in project_arena(result, self.keep):
            if mapping not in seen:
                seen.add(mapping)
                out.append(mapping)
        return OperatorResult(out, result.document_length)

    def label(self) -> str:
        return f"project[{', '.join(sorted(self.keep))}]"


def render_physical(root: PhysicalOperator) -> str:
    """Render a physical operator tree as an indented multi-line string."""
    from repro.algebra.logical import render_tree

    return render_tree(
        root,
        label=lambda node: node.label(),
        children=lambda node: node.children(),
        annotate=lambda node: node.reason,
    )
