"""The integer-only evaluation entry points over a :class:`CompiledEVA`.

This is Algorithm 1 again — the same capturing/reading alternation as the
reference engine in :mod:`repro.enumeration.evaluate`, whose lazy-list
DAG stays the semantic oracle — but operating purely on ints:

* live states are slots in a flat list indexed by state id (no hashing),
* the document is translated **once per alphabet classing** into a compact
  class-id buffer (:mod:`repro.runtime.encoding`) cached on the document,
  so the reading phase is two indexings per live state and character and
  repeated evaluations of one document skip the translation entirely,
* symbols with identical letter-table columns share one equivalence class,
  shrinking the dense rows; one extra all-dead *foreign* class absorbs
  out-of-alphabet characters, so the inner loops have no foreign branch,
* marker sets are referenced by id, and DAG nodes are rows of a flat
  int arena (:class:`~repro.runtime.dag.CompiledResultDag`) instead of
  objects,
* the per-document state arrays live in an :class:`EvaluationScratch` that
  batch callers reuse across documents, so steady-state evaluation
  allocates only the DAG it returns,
* the live-state list is kept **sorted by state id** after every phase
  that could disorder it.  This canonical order makes each engine's arena
  a pure function of ``(entry state set, buffer)`` — the invariant the
  chunk-fed engine (:mod:`repro.runtime.streaming`) relies on to resume a
  document at any chunk boundary and still build the whole-document arena
  bit for bit — and it costs one ``sort`` of a usually length-≤2 list per
  phase.

On top of that sits the **quiescent-run fast path**: when every live state
is *silent* (no extended variable transition), the capturing phase is a
guaranteed no-op and is skipped; when additionally exactly one run is live
— the overwhelmingly common case on sparse-match workloads, since a
deterministic reading phase never forks — the engine *sprints*: the run's
list/count is parked, and a compiled byte-pattern finds the next position
whose character class leaves the current state at C speed (for byte
buffers; a tight Python loop otherwise).  No arena cell or snapshot is
touched while sprinting.

Since the kernel-spec refactor the loops themselves live in
:mod:`repro.runtime.kernel`: each entry point here binds one generated
kernel (one :class:`~repro.runtime.kernel.KernelSpec` point) at import
time and wraps it behind the stable public signature — encode the
document, borrow the scratch, run the kernel, collect the result, hand
the scratch back.  The generated loops are statement-for-statement the
hand-written ones this module used to carry, so arenas stay
bit-identical and the sprint fast path keeps its benchmarked floors.

The produced :class:`~repro.runtime.dag.CompiledResultDag` enumerates,
counts and converts back to the reference
:class:`~repro.enumeration.evaluate.ResultDag` (keyed by the original
automaton states), so the delay profiler works on it unchanged.
"""

from __future__ import annotations

from repro.core.errors import EvaluationError
from repro.runtime.compiled import CompiledEVA
from repro.runtime.dag import NIL, CompiledResultDag
from repro.runtime.kernel import KernelSpec, build_kernel

__all__ = [
    "EvaluationScratch",
    "count_compiled",
    "evaluate_compiled_arena",
]


class EvaluationScratch:
    """Reusable per-document work buffers for the compiled engines.

    Holds the state-indexed slot arrays that the engines ping-pong between
    phases: the arena loop keeps per-state ``(start, end)`` cell-index
    pairs, and :func:`count_compiled` two per-state partial-run count
    rows.  A scratch is tied to the state count of the automaton it was
    created for; the batch engine keeps one per worker and the
    :class:`~repro.spanners.Spanner` facade one per cached alphabet (a
    scratch is single-threaded — share automata across threads, not
    scratches).
    """

    __slots__ = (
        "num_states",
        "cur_start",
        "cur_end",
        "pend_start",
        "pend_end",
        "count_cur",
        "count_pend",
    )

    def __init__(self, compiled: CompiledEVA) -> None:
        self.num_states = compiled.num_states
        self.cur_start = [NIL] * self.num_states
        self.cur_end = [NIL] * self.num_states
        self.pend_start = [NIL] * self.num_states
        self.pend_end = [NIL] * self.num_states
        self.count_cur = [0] * self.num_states
        self.count_pend = [0] * self.num_states


def _checked_scratch(
    compiled: CompiledEVA, scratch: EvaluationScratch | None
) -> EvaluationScratch:
    if scratch is None:
        return EvaluationScratch(compiled)
    if scratch.num_states != compiled.num_states:
        raise EvaluationError(
            "the evaluation scratch was created for a different automaton "
            f"({scratch.num_states} states, expected {compiled.num_states})"
        )
    return scratch


_arena_kernel = build_kernel(KernelSpec(capture="arena"))
_count_kernel = build_kernel(KernelSpec(capture="count"))


def evaluate_compiled_arena(
    compiled: CompiledEVA,
    document: object,
    *,
    scratch: EvaluationScratch | None = None,
    fast_path: bool = True,
) -> CompiledResultDag:
    """Algorithm 1 on the dense tables, building the node arena natively.

    The same capturing/reading alternation as
    :func:`repro.enumeration.evaluate.evaluate`, but no ``DagNode`` or
    ``LazyList`` object is ever created:
    DAG nodes are rows appended to parallel int arrays and lists are
    ``(start, end)`` cell-index pairs held in the scratch's slot arrays.
    The paper's ``lazycopy`` degenerates to copying two ints, ``add``
    appends one cell, and ``append`` splices by assigning one next-pointer
    (asserting the single-assignment discipline, as the object lists do).
    While a lone silent run sprints, not even the two ints move.

    Returns the flat :class:`CompiledResultDag`, on which enumeration and
    counting run integer-only (see :mod:`repro.runtime.dag`).  Pass a
    reused *scratch* when evaluating many documents with the same
    automaton; ``fast_path=False`` disables the quiescent-run sprint
    (benchmark and test instrumentation only).
    """
    encoded = compiled.encode(document)
    buf = encoded.buffer
    n = encoded.length
    scratch = _checked_scratch(compiled, scratch)

    (
        active,
        cur_start,
        cur_end,
        pend_start,
        pend_end,
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
    ) = _arena_kernel(compiled, buf, n, scratch, fast_path)

    is_final = compiled.is_final
    final_entries = []
    for state in active:
        if is_final[state] and cur_start[state] != NIL:
            final_entries.append((state, cur_start[state], cur_end[state]))

    # Release the borrowed slot arrays for the next document and hand the
    # (possibly swapped) arrays back to the scratch.
    for state in active:
        cur_start[state] = NIL
    scratch.cur_start = cur_start
    scratch.cur_end = cur_end
    scratch.pend_start = pend_start
    scratch.pend_end = pend_end

    return CompiledResultDag(
        compiled,
        n,
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
        final_entries,
    )


def count_compiled(
    compiled: CompiledEVA,
    document: object,
    *,
    scratch: EvaluationScratch | None = None,
    fast_path: bool = True,
) -> int:
    """Algorithm 3 (Theorem 5.1) on the dense integer tables.

    Keeps one partial-run count per state id in a flat list — the integer
    rewrite of :func:`repro.counting.count.count_mappings`.  No DAG, no
    dictionaries, ``O(|A| × |d|)`` time and ``O(|A|)`` space.  Like the
    evaluate engines, it accepts a reusable *scratch* (the same
    :class:`EvaluationScratch`; its two count rows are borrowed and
    returned zeroed) so batch and census callers allocate nothing per
    document, and it sprints through quiescent stretches.
    """
    encoded = compiled.encode(document)
    buf = encoded.buffer
    n = encoded.length
    scratch = _checked_scratch(compiled, scratch)

    active, counts, pending = _count_kernel(compiled, buf, n, scratch, fast_path)

    is_final = compiled.is_final
    total = sum(counts[state] for state in active if is_final[state])

    # Return the borrowed count rows zeroed for the next document.
    for state in active:
        counts[state] = 0
    scratch.count_cur = counts
    scratch.count_pend = pending

    return total
