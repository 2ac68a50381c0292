"""The Algorithm-1 loops behind every engine, written once each.

The paper's Algorithm 1 is one capturing/reading alternation.  Every
engine runs it through the plain functions of this module; the engines
themselves (:mod:`repro.runtime.engine`, :mod:`repro.runtime.streaming`)
only encode the document, borrow the scratch, call a loop and collect
the result.  The loops and those entry points read five things off an
automaton:
``class_table[s][c]``, ``variable_table[s]``, ``silent[s]``,
``is_final[s]`` and ``initial`` (plus the sprint patterns).  The dense
:class:`~repro.runtime.compiled.CompiledEVA` holds them as tuples; the
lazily determinized :class:`~repro.runtime.subset.CompiledSubsetEVA`
fills them on first read and grows its scratch as it interns subsets —
the paper's Section 4 remark that its translations "can be fed to
Algorithm 1 on-the-fly", with the one Algorithm 1.  There are four
functions:

* :func:`arena_loop` — the arena loop.  It is *resumable*: the
  caller holds the live state (active list, ``(start, end)`` slot
  arrays, the ``quiet`` flag, the arena arrays and the position
  ``offset`` of the buffer's first character) and gets it handed back,
  so a whole document is one call with ``offset=0`` and a stream is one
  call per chunk;
* :func:`final_capture` — the capturing phase at the end of the
  document, run once after the last :func:`arena_loop` call;
* :func:`count_loop` — Algorithm 3;
* :func:`sprint` — the quiescent chase both loops call.

The invariants every loop keeps:

* the **capturing step** snapshots the live lists before any addition —
  exactly the paper's lazycopy;
* the **reading step** takes one letter transition per live run, the
  foreign class killing runs uniformly, and splices guarded by the
  lazy-list single-assignment discipline (a second write to a next
  pointer raises :class:`NotDeterministicError`);
* the live list is **sorted back to canonical id order** after any phase
  that can disorder it.  This makes the arena a pure function of
  ``(entry state set, buffer)``, which is why a chunk-fed arena is
  bit-identical to the whole-document one wherever the chunk boundaries
  fall;
* the **quiescent sprint** (:func:`sprint`): a lone silent run parks its
  payload (a ``(start, end)`` pair or a count) and chases letter
  transitions at C speed; no arena cell or snapshot is touched while
  sprinting;
* the **scratch ping-pong**: current/pending slot arrays swap after each
  reading phase, and the loops return the arrays so callers can hand
  them back to the scratch.

The planner-facing ``kernel`` choice (:data:`KERNELS`: ``auto``,
``scalar``, ``runlength``) selects between these scalar loops and the
run-length algebra of :mod:`repro.runtime.runlength`; only counting has
a run-length path, and every arena is built by a loop from this module.
``tools/check_single_kernel.py`` fails when a raw Algorithm-1 position
loop appears anywhere else.
"""

from __future__ import annotations

from repro.core.errors import NotDeterministicError
from repro.runtime.compiled import NO_TARGET, CompiledEVA
from repro.runtime.dag import NIL

__all__ = [
    "KERNELS",
    "arena_loop",
    "count_loop",
    "final_capture",
    "sprint",
]

#: The planner-facing kernel choice (``plan.KERNEL_CHOICES`` imports it,
#: ``runlength.KERNELS`` re-exports it): ``"auto"`` resolves per document
#: from its measured run statistics.  It picks between the scalar count
#: loop here and the run-length algebra; arenas are always built by the
#: scalar loops.
KERNELS: tuple[str, ...] = ("auto", "scalar", "runlength")


# ---------------------------------------------------------------------- #
# The sprint helper (the C-speed quiescent chase)
# ---------------------------------------------------------------------- #


def sprint(
    compiled: CompiledEVA, buf, pos: int, n: int, state: int, use_patterns: bool
) -> tuple[int, int]:
    """Advance a lone silent run until it stops being boring.

    Returns ``(state, pos)``.  ``state == NO_TARGET`` means the run died at
    ``pos``; otherwise either ``pos == n`` (document exhausted, *state*
    still live) or ``state`` is non-silent (a capturing phase is due at
    ``pos``).  Precondition: *state* is silent and ``pos < n``.

    With a ``bytes`` buffer, stretches where *state* self-loops are skipped
    by :meth:`CompiledEVA.sprint_pattern` — a C-level scan for the next
    class id that leaves the state — so the Python-level cost is one
    iteration per state *change*, not per character.
    """
    class_table = compiled.class_table
    silent = compiled.silent
    if use_patterns:
        while True:
            match = compiled.sprint_pattern(state).search(buf, pos)
            if match is None:
                return state, n
            pos = match.start()
            target = class_table[state][buf[pos]]
            pos += 1
            if target < 0:
                return NO_TARGET, pos
            state = target
            if pos >= n or not silent[state]:
                return state, pos
    row = class_table[state]
    while pos < n:
        target = row[buf[pos]]
        pos += 1
        if target < 0:
            return NO_TARGET, pos
        if target != state:
            if not silent[target]:
                return target, pos
            state = target
            row = class_table[state]
    return state, pos


# ---------------------------------------------------------------------- #
# The loops
# ---------------------------------------------------------------------- #


def arena_loop(
    compiled, buf, n, offset, cur_start, cur_end, pend_start, pend_end, active, quiet,
    node_markers, node_positions, node_starts, node_ends, cell_nodes, cell_nexts, fast_path,
):
    """Algorithm 1 over ``buf[:n]``, building the arena in place.

    ``active`` lists the live states in id order; ``cur_start[s]`` and
    ``cur_end[s]`` hold state ``s``'s list as first/last cell indices,
    and the ``pend_*`` arrays are the all-``NIL`` slots the reading phase
    fills.  Node positions are ``offset + pos``.  The arena arrays are
    appended to in place; the loop state comes back as
    ``(cur_start, cur_end, pend_start, pend_end, active, quiet)`` for the
    next call or for :func:`final_capture`.  The loop never runs the
    capturing phase at position ``offset + n``.
    """
    variable_table = compiled.variable_table
    class_table = compiled.class_table
    silent = compiled.silent
    use_patterns = fast_path and isinstance(buf, bytes)

    def capturing(position):
        snapshot = [
            (state, cur_start[state], cur_end[state])
            for state in active
            if variable_table[state]
        ]
        for state, old_start, old_end in snapshot:
            for set_id, target in variable_table[state]:
                node = len(node_markers)
                node_markers.append(set_id)
                node_positions.append(position)
                node_starts.append(old_start)
                node_ends.append(old_end)
                cell = len(cell_nodes)
                cell_nodes.append(node)
                target_start = cur_start[target]
                cell_nexts.append(target_start)
                if target_start == NIL:
                    cur_end[target] = cell
                    active.append(target)
                cur_start[target] = cell

    pos = 0
    while pos < n:
        if quiet and fast_path:
            if len(active) == 1:
                state = active[0]
                start = cur_start[state]
                end = cur_end[state]
                cur_start[state] = NIL
                state, pos = sprint(compiled, buf, pos, n, state, use_patterns)
                if state < 0:
                    active = []
                    break
                cur_start[state] = start
                cur_end[state] = end
                active[0] = state
                quiet = silent[state]
                if pos >= n:
                    break
            elif use_patterns:
                match = compiled.sprint_pattern_multi(
                    tuple(sorted(active))
                ).search(buf, pos)
                if match is None:
                    pos = n
                    break
                pos = match.start()
        if not quiet:
            alive = len(active)
            capturing(offset + pos)
            if len(active) > alive:
                active.sort()

        symbol = buf[pos]
        pos += 1
        next_active = []
        quiet = True
        for state in active:
            old_start = cur_start[state]
            old_end = cur_end[state]
            cur_start[state] = NIL
            target = class_table[state][symbol]
            if target < 0:
                continue
            target_start = pend_start[target]
            if target_start == NIL:
                pend_start[target] = old_start
                pend_end[target] = old_end
                next_active.append(target)
                if quiet and not silent[target]:
                    quiet = False
            else:
                # append(old_list): the end cell's next pointer must
                # still be unset, or the automaton is not deterministic.
                end_cell = pend_end[target]
                if cell_nexts[end_cell] != NIL:
                    raise NotDeterministicError(
                        "arena append would overwrite a next pointer; the "
                        "compiled automaton is not deterministic"
                    )
                cell_nexts[end_cell] = old_start
                pend_end[target] = old_end
        cur_start, pend_start = pend_start, cur_start
        cur_end, pend_end = pend_end, cur_end
        if len(next_active) > 1:
            next_active.sort()
        active = next_active
        if not active:
            break

    return (cur_start, cur_end, pend_start, pend_end, active, quiet)


def final_capture(
    compiled, cur_start, cur_end, active, quiet,
    node_markers, node_positions, node_starts, node_ends, cell_nodes, cell_nexts, position,
):
    """The capturing phase at the document's end *position*.

    Run once after the last :func:`arena_loop` call, on the state it
    returned.  Mutates ``active`` and the arrays in place.
    """
    variable_table = compiled.variable_table
    if active and not quiet:
        alive = len(active)
        snapshot = [
            (state, cur_start[state], cur_end[state])
            for state in active
            if variable_table[state]
        ]
        for state, old_start, old_end in snapshot:
            for set_id, target in variable_table[state]:
                node = len(node_markers)
                node_markers.append(set_id)
                node_positions.append(position)
                node_starts.append(old_start)
                node_ends.append(old_end)
                cell = len(cell_nodes)
                cell_nodes.append(node)
                target_start = cur_start[target]
                cell_nexts.append(target_start)
                if target_start == NIL:
                    cur_end[target] = cell
                    active.append(target)
                cur_start[target] = cell
        if len(active) > alive:
            active.sort()


def count_loop(compiled, buf, n, scratch, fast_path):
    """Algorithm 3 over ``buf[:n]``: one partial-run count per state id.

    Borrows the scratch's two count rows (all zero on entry) and returns
    ``(active, counts, pending)``: the live states after the final
    capturing phase, their counts, and the other row (all zero).
    """
    variable_table = compiled.variable_table
    class_table = compiled.class_table
    silent = compiled.silent
    use_patterns = fast_path and isinstance(buf, bytes)
    counts = scratch.count_cur
    pending = scratch.count_pend
    initial = compiled.initial
    counts[initial] = 1
    active = [initial]
    quiet = silent[initial]

    def capturing():
        snapshot = [
            (state, counts[state]) for state in active if variable_table[state]
        ]
        for state, amount in snapshot:
            for _set_id, target in variable_table[state]:
                if counts[target] == 0:
                    active.append(target)
                counts[target] += amount

    pos = 0
    while pos < n:
        if quiet and fast_path:
            if len(active) == 1:
                state = active[0]
                amount = counts[state]
                counts[state] = 0
                state, pos = sprint(compiled, buf, pos, n, state, use_patterns)
                if state < 0:
                    active = []
                    break
                counts[state] = amount
                active[0] = state
                quiet = silent[state]
                if pos >= n:
                    break
            elif use_patterns:
                match = compiled.sprint_pattern_multi(
                    tuple(sorted(active))
                ).search(buf, pos)
                if match is None:
                    pos = n
                    break
                pos = match.start()
        if not quiet:
            alive = len(active)
            capturing()
            if len(active) > alive:
                active.sort()

        symbol = buf[pos]
        pos += 1
        next_active = []
        quiet = True
        for state in active:
            amount = counts[state]
            counts[state] = 0
            if not amount:
                continue
            target = class_table[state][symbol]
            if target < 0:
                continue
            if pending[target] == 0:
                next_active.append(target)
                if quiet and not silent[target]:
                    quiet = False
            pending[target] += amount
        counts, pending = pending, counts
        if len(next_active) > 1:
            next_active.sort()
        active = next_active
        if not active:
            break

    if active and not quiet:
        alive = len(active)
        capturing()
        if len(active) > alive:
            active.sort()
    return (active, counts, pending)
