"""The integer-only evaluation entry points over either compiled automaton.

This is Algorithm 1 again — the same capturing/reading alternation as the
reference engine in :mod:`repro.enumeration.evaluate`, whose lazy-list
DAG stays the semantic oracle — but operating purely on ints:

* live states are slots in a flat list indexed by state id (no hashing),
* the document is translated **once per alphabet classing** into a compact
  class-id buffer (:mod:`repro.runtime.encoding`) cached on the document,
  so the reading phase is two indexings per live state and character and
  repeated evaluations of one document skip the translation entirely,
* symbols with identical letter-table columns share one equivalence class,
  shrinking the dense rows; characters the automaton does not name read
  as OTHER's class (or, without an OTHER column, as one extra all-dead
  *foreign* class), so the inner loops have no out-of-alphabet branch,
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

The loops themselves live in :mod:`repro.runtime.kernel`; each entry
point here wraps one behind the stable public signature — encode the
document, borrow the scratch, run the loop, collect the result, hand the
scratch back.  The arena engine seeds the initial state, runs the same
resumable :func:`~repro.runtime.kernel.arena_loop` the chunk-fed
evaluator runs once per chunk (here once, at offset 0), then the final
capturing phase: one loop, so the two arenas cannot drift apart.

Both entry points take either automaton form: a dense
:class:`~repro.runtime.compiled.CompiledEVA`, or the lazily determinized
:class:`~repro.runtime.subset.CompiledSubsetEVA` of the ``compiled-otf``
engine, which exposes the same tables filled on first read.  The latter
owns the scratch its loops run on (:func:`scratch_for`), because it
grows a slot per subset it interns mid-document.

The produced :class:`~repro.runtime.dag.CompiledResultDag` enumerates,
counts and converts back to the reference
:class:`~repro.enumeration.evaluate.ResultDag` (keyed by the original
automaton states), so the delay profiler works on it unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import EvaluationError
from repro.runtime.compiled import CompiledEVA
from repro.runtime.dag import NIL, CompiledResultDag
from repro.runtime.kernel import arena_loop, count_loop, final_capture

if TYPE_CHECKING:
    from repro.runtime.subset import CompiledSubsetEVA

__all__ = [
    "EvaluationScratch",
    "count_compiled",
    "evaluate_compiled_arena",
    "scratch_for",
]


class EvaluationScratch:
    """Reusable per-document work buffers for the compiled engines.

    Holds the state-indexed slot arrays that the engines ping-pong between
    phases: the arena loop keeps per-state ``(start, end)`` cell-index
    pairs, and :func:`count_compiled` two per-state partial-run count
    rows.  A scratch is tied to the state count of the automaton it was
    created for; the batch engine keeps one per worker and the
    :class:`~repro.spanners.Spanner` facade one per compiled pattern (a
    scratch is single-threaded — share automata across threads, not
    scratches).  A lazily determinized automaton owns its one scratch
    and grows it (:meth:`add_state`); it accepts no other.
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

    def __init__(self, compiled: CompiledEVA | CompiledSubsetEVA) -> None:
        self.num_states = compiled.num_states
        self.cur_start = [NIL] * self.num_states
        self.cur_end = [NIL] * self.num_states
        self.pend_start = [NIL] * self.num_states
        self.pend_end = [NIL] * self.num_states
        self.count_cur = [0] * self.num_states
        self.count_pend = [0] * self.num_states

    def add_state(self) -> None:
        """Give one more state id a clear slot in every array.

        A :class:`~repro.runtime.subset.CompiledSubsetEVA` calls this on
        its own scratch as it interns a subset, possibly mid-document: the
        arrays are grown in place, so a loop holding them (under either
        ping-pong name) sees the new slot.
        """
        self.num_states += 1
        self.cur_start.append(NIL)
        self.cur_end.append(NIL)
        self.pend_start.append(NIL)
        self.pend_end.append(NIL)
        self.count_cur.append(0)
        self.count_pend.append(0)


def scratch_for(compiled: CompiledEVA | CompiledSubsetEVA) -> EvaluationScratch:
    """The scratch to evaluate *compiled* with: the automaton's own growing
    one for the lazily determinized form, a fresh one otherwise."""
    return compiled.scratch or EvaluationScratch(compiled)


def _checked_scratch(
    compiled: CompiledEVA | CompiledSubsetEVA, scratch: EvaluationScratch | None
) -> EvaluationScratch:
    if scratch is None:
        return scratch_for(compiled)
    owned = compiled.scratch
    if scratch.num_states != compiled.num_states or (
        owned is not None and scratch is not owned
    ):
        raise EvaluationError(
            "the evaluation scratch was created for a different automaton "
            f"({scratch.num_states} states, expected {compiled.num_states})"
        )
    return scratch


def _release_slots(scratch, active, cur_start, cur_end, pend_start, pend_end) -> None:
    """Clear the live states' slots and hand the (possibly swapped)
    arrays back to the scratch, ready for the next document."""
    for state in active:
        cur_start[state] = NIL
    scratch.cur_start = cur_start
    scratch.cur_end = cur_end
    scratch.pend_start = pend_start
    scratch.pend_end = pend_end


def _finish_arena(
    compiled, scratch, n, active, quiet, cur_start, cur_end, pend_start, pend_end, arena
) -> CompiledResultDag:
    """Run the final capturing phase at position *n*, collect the final
    lists and release the scratch.

    *arena* is the six arena arrays in :func:`~repro.runtime.kernel.arena_loop`
    order.  Shared by the whole-document engine and the chunk-fed
    evaluator's ``finish()``.
    """
    final_capture(compiled, cur_start, cur_end, active, quiet, *arena, n)
    is_final = compiled.is_final
    final_entries = [
        (state, cur_start[state], cur_end[state])
        for state in active
        if is_final[state] and cur_start[state] != NIL
    ]
    _release_slots(scratch, active, cur_start, cur_end, pend_start, pend_end)
    return CompiledResultDag(compiled, n, *arena, final_entries)


def evaluate_compiled_arena(
    compiled: CompiledEVA | CompiledSubsetEVA,
    document: object,
    *,
    scratch: EvaluationScratch | None = None,
    fast_path: bool = True,
) -> CompiledResultDag:
    """Algorithm 1 on the integer tables, building the node arena natively.

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

    # Cell 0 is the initial list [⊥], held by the initial state.
    initial = compiled.initial
    scratch.cur_start[initial] = 0
    scratch.cur_end[initial] = 0
    arena = ([], [], [], [], [NIL], [NIL])
    cur_start, cur_end, pend_start, pend_end, active, quiet = arena_loop(
        compiled,
        buf,
        n,
        0,
        scratch.cur_start,
        scratch.cur_end,
        scratch.pend_start,
        scratch.pend_end,
        [initial],
        compiled.silent[initial],
        *arena,
        fast_path,
    )
    return _finish_arena(
        compiled, scratch, n, active, quiet, cur_start, cur_end, pend_start, pend_end, arena
    )


def count_compiled(
    compiled: CompiledEVA | CompiledSubsetEVA,
    document: object,
    *,
    scratch: EvaluationScratch | None = None,
    fast_path: bool = True,
) -> int:
    """Algorithm 3 (Theorem 5.1) on the integer tables.

    Keeps one partial-run count per state id in a flat list — the integer
    rewrite of :func:`repro.counting.count.count_mappings`.  No DAG,
    ``O(|A| × |d|)`` time and ``O(|A|)`` space.  Like the
    evaluate engines, it accepts a reusable *scratch* (the same
    :class:`EvaluationScratch`; its two count rows are borrowed and
    returned zeroed) so batch and census callers allocate nothing per
    document, and it sprints through quiescent stretches.
    """
    encoded = compiled.encode(document)
    buf = encoded.buffer
    n = encoded.length
    scratch = _checked_scratch(compiled, scratch)

    active, counts, pending = count_loop(compiled, buf, n, scratch, fast_path)

    is_final = compiled.is_final
    total = sum(counts[state] for state in active if is_final[state])

    # Return the borrowed count rows zeroed for the next document.
    for state in active:
        counts[state] = 0
    scratch.count_cur = counts
    scratch.count_pend = pending

    return total
