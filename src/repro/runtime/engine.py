"""The integer-only evaluation entry points over the compiled automaton.

This is Algorithm 1 again — the same capturing/reading alternation as the
reference engine in :mod:`repro.enumeration.evaluate`, whose lazy-list
DAG stays the semantic oracle — but operating purely on ints:

* the live states form an interned *active set* with one plan per
  symbol class, built once and reused at every position that meets the
  set (:mod:`repro.runtime.kernel`): the capturing phase there and the
  read of the next letter in one lookup, leaving out the captures that
  letter kills (they could never be reached); the runs' lists travel in
  one flat tuple of ``(start, end)`` cell indices;
* the document is translated **once per alphabet classing** into a compact
  class-id buffer (:mod:`repro.runtime.encoding`) cached on the document,
  with symbols of identical letter-table columns sharing one class and
  characters the automaton does not name reading as OTHER's class (or an
  all-dead *foreign* class), so the loops have no out-of-alphabet branch;
* marker sets are referenced by id, and DAG nodes are rows of a flat
  int arena (:class:`~repro.runtime.dag.CompiledResultDag`);
* an evaluation holds no state outside its own call, so one automaton
  serves any number of threads at once;
* a set's members are **sorted by state id**, which makes each arena a
  pure function of ``(entry state set, buffer)`` — the invariant the
  chunk-fed engine (:mod:`repro.runtime.streaming`) relies on to resume
  a document at any chunk boundary and still build the whole-document
  arena bit for bit.

On top of that sits the **quiescent-run fast path**: when every live state
is *silent* (no extended variable transition), the capturing phase is a
guaranteed no-op and is skipped; when additionally exactly one run is live
— the overwhelmingly common case on sparse-match workloads — the engine
*sprints*: the run's list/count is parked, and a compiled byte-pattern
finds the next position whose character class leaves the current state at
C speed.  Any other set skips its *idle* stretches the same way: where
every live state self-loops and every capture dies on the next letter,
the position moves nothing, and one search of the set's stop pattern
finds the next one that does.  Counting has a third one: where a set's plan on a class
leads back to the set, a run of that class is a power of the plan's
small count transfer, applied in ``O(log k)`` products per run of ``k``.

Each entry point here encodes the document, runs one loop and collects
the result.  The arena engine runs the same resumable
:func:`~repro.runtime.kernel.arena_loop` the chunk-fed evaluator
(:meth:`~repro.spanners.Spanner.stream`, ``repro stream`` and ``repro
serve``) runs once per chunk (here once, at offset 0, final capturing
phase included),
so the two arenas cannot drift apart.  Both entry points run the lazily
determinized :class:`~repro.runtime.subset.CompiledSubsetEVA`.  The produced
:class:`~repro.runtime.dag.CompiledResultDag` enumerates, counts and
converts back to the reference
:class:`~repro.enumeration.evaluate.ResultDag`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.dag import NIL, CompiledResultDag
from repro.runtime.kernel import arena_loop, count_loop, set_table

if TYPE_CHECKING:
    from repro.runtime.subset import CompiledSubsetEVA

__all__ = [
    "count_compiled",
    "evaluate_compiled_arena",
]


def _collect_arena(compiled, n, record, slots, arena) -> CompiledResultDag:
    """The result of a document of *n* characters whose final
    :func:`~repro.runtime.kernel.arena_loop` call returned
    ``(record, slots)``: the live final states' lists over the six
    *arena* arrays.  Shared by the whole-document engine and the
    chunk-fed evaluator's ``finish()``.
    """
    final_entries = []
    if record is not None:
        is_final = compiled.is_final
        final_entries = [
            (state, slots[2 * index], slots[2 * index + 1])
            for index, state in enumerate(record.members)
            if is_final[state]
        ]
    return CompiledResultDag(compiled, n, *arena, final_entries)


def evaluate_compiled_arena(
    compiled: CompiledSubsetEVA,
    document: object,
    *,
    fast_path: bool = True,
) -> CompiledResultDag:
    """Algorithm 1 on the integer tables, building the node arena natively.

    The same capturing/reading alternation as
    :func:`repro.enumeration.evaluate.evaluate`, but no ``DagNode`` or
    ``LazyList`` object is ever created:
    DAG nodes are rows appended to parallel int arrays and lists are
    ``(start, end)`` cell-index pairs in the loop's slot tuple.
    The paper's ``lazycopy`` degenerates to copying two ints, ``add``
    appends one cell, and ``append`` splices by assigning one next-pointer
    (asserting the single-assignment discipline, as the object lists do).
    While a lone silent run sprints, or any set skips an idle stretch
    (every member self-loops, every capture dies on the next letter),
    not even the two ints move.

    Returns the flat :class:`CompiledResultDag`, on which enumeration and
    counting run integer-only (see :mod:`repro.runtime.dag`).
    ``fast_path=False`` disables the quiescent-run sprint and the
    stop-pattern search after an idle position, which then steps one
    character at a time (benchmark and test instrumentation only).
    """
    encoded = compiled.encode(document)
    n = encoded.length
    # Cell 0 is the initial list [⊥], held by the initial state.
    arena = ([], [], [], [], [NIL], [NIL])
    record, slots = arena_loop(
        compiled,
        encoded.buffer,
        n,
        0,
        set_table(compiled).record((compiled.initial,)),
        (0, 0),
        *arena,
        fast_path,
        final=True,
    )
    return _collect_arena(compiled, n, record, slots, arena)


def count_compiled(
    compiled: CompiledSubsetEVA,
    document: object,
    *,
    fast_path: bool = True,
) -> int:
    """Algorithm 3 (Theorem 5.1) on the integer tables.

    Keeps one partial-run count per live state — the integer rewrite of
    :func:`repro.counting.count.count_mappings`, stepped by the same set
    plans as the arena loop.  No DAG, ``O(|A| × |d|)`` time and
    ``O(|A|)`` space; it sprints through quiescent stretches, skips
    idle ones with one search each and takes long runs of one class by
    binary powers.  ``fast_path=False`` turns all three off.
    """
    encoded = compiled.encode(document)
    record, counts = count_loop(compiled, encoded.buffer, encoded.length, fast_path)
    if record is None:
        return 0
    is_final = compiled.is_final
    return sum(
        [count for state, count in zip(record.members, counts) if is_final[state]]
    )
