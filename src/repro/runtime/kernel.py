"""The Algorithm-1 loops behind every engine, written once each.

The paper's Algorithm 1 is one capturing/reading alternation.  Every
engine runs it through the loops of this module and only encodes the
document, calls a loop and collects the result.

The loops step **interned active sets**.  The live states form a sorted
tuple, which :class:`SetTable` interns as a :class:`SetRecord` holding
its ``quiet`` flag (no member has a variable transition, so capturing
is a no-op), its stop pattern and, built on first use, one **plan**
per symbol class: the capturing phase at a position and the read of the
class after it, fused (per capture its source slot, marker set and
target, compiled into gathers that append the new nodes and cells; the
target set; the splices of the read; one gather handing each target its
first arrival's start and last arrival's end; and the count transfer of
the whole position).  One more plan, with no letter, is the capturing
phase at the document's end.

A loop carries ``(record, slots)``: the live set's record and a tuple
holding each member's list as two cell indices ``(start, end)``, or its
partial-run count, in member order.  A position is one plan lookup and
one C-level gather.  Because a plan knows the letter it reads, it leaves
out every capture whose target dies on that letter: such a cell would be
held only by its target's list, which the read drops, so the arena
keeps the same reachable nodes and enumerates the same mappings in the
same order (the **lookahead**).  A plan whose class every member
self-loops on, and on which the lookahead drops every capture, is
:data:`IDLE`: it moves no list and builds no node, so the loops step
past it without a gather and, on a ``bytes`` buffer, jump with one
search of the set's **stop pattern** (the byte class of its non-idle
classes) to the end of the idle stretch.  Plans read the automaton only
while they are built, through ``class_table[s][c]`` and
``variable_table[s]``, which the lazily determinized
:class:`~repro.runtime.subset.CompiledSubsetEVA` fills on first read —
the paper's Section 4 remark that its translations "can be fed to
Algorithm 1 on-the-fly".  The table lives
on the automaton: derived, never pickled, cleared at
:data:`SET_TABLE_CAP` records.  Active sets are a subset construction,
so some patterns meet a new set at nearly every position; a call that
builds plans faster than :data:`PLAN_CREDIT` and :data:`PLAN_SHARE`
allow finishes in a loop over per-call state-indexed arrays instead,
which applies the same lookahead.

* :func:`arena_loop` — the arena loop.  It is *resumable*: the caller
  holds ``(record, slots)``, the arena arrays and the position
  ``offset`` of the buffer's first character, so a whole document is
  one ``final`` call and a stream is one call per chunk plus a
  ``final`` one on an empty buffer, which runs the capturing phase at
  the document's end.  A chunk returns its state before the capturing
  phase at its end, which the next chunk's first plan runs with the
  same lookahead;
* :func:`count_loop` — Algorithm 3, on the same plans.  A set whose plan
  on a class leads back to it is a *fixed point* on that class; unless
  the plan is idle, the loop applies its count transfer unchanged while
  the class repeats.  After :data:`POWER_MIN` repeats it finds the run's
  end at C speed (``bytes`` buffers) and applies memoized binary powers
  of that transfer, so a run of ``k`` costs ``O(log k)`` small products;
* :func:`sprint` — the quiescent chase of a lone silent run.

Every loop keeps the paper's invariants: the **capturing step** reads
the live lists before any addition (lazycopy) and writes every capture
whose target survives the next letter; the **reading step** takes one
letter transition per run, the foreign class killing runs
uniformly, and its splices keep the lazy-list single-assignment
discipline (a second write to a next pointer raises
:class:`NotDeterministicError`); live states stay in **canonical id
order**, so the arena is a pure function of ``(entry state set,
buffer)`` — bit-identical wherever chunk boundaries fall and whichever
loop form ran; the **quiescent sprint** parks a lone silent run's
payload and chases its letter transitions at C speed; and an **idle
skip** passes over only positions that would build no node and move no
list.

Every arena and every count is built here: there is no kernel choice.
``tools/check_single_kernel.py`` fails when a raw Algorithm-1 position
loop appears anywhere else.
"""

from __future__ import annotations

import re
import weakref
from operator import itemgetter

from repro.core.errors import NotDeterministicError
from repro.runtime.dag import NIL
from repro.runtime.subset import NO_TARGET

__all__ = [
    "POWER_MIN",
    "SET_TABLE_CAP",
    "SetTable",
    "arena_loop",
    "count_loop",
    "set_table",
    "sprint",
]

#: Upper bound on the set records one automaton keeps; past it the
#: table is cleared (a loop keeps the record it holds).
SET_TABLE_CAP = 1 << 12

#: A loop call may build this many plans, plus one per ``PLAN_SHARE``
#: positions, before it finishes in :func:`_state_loop`.  A plan costs
#: a few plain steps to build and saves about half a step per reuse, so
#: a call building plans faster than that is meeting sets it will not
#: revisit (random ``ab`` text under ``.*x{a[ab]{10}}.*`` meets 3,700
#: sets in 5k characters; contacts-dense meets 22 in 15k).
PLAN_CREDIT = 64
PLAN_SHARE = 4

#: :func:`count_loop` repeats a fixed point's transfer this many times
#: before it finds the run's end and applies binary powers instead.
#: Measured on 20k-char texts of ``a``-runs of length L split by ``b``,
#: under ``.*x{a+}.*`` and ``.*x{a+}.*y{a+}.*z{a+}.*`` (warm, best of 7,
#: 2-core Xeon, Python 3.11), against repeats alone: 8 cost 1.1-1.4x at
#: L = 8-16; 16 stays within 1.05x at every L and is 1.6x faster at
#: L = 64, 2.5-3x at L = 128 and 14x at L = 1024; 32 and 64 give up
#: most of that (32 reads 1.0x at L = 64).
POWER_MIN = 16

#: The plan of a class on which a set is *idle*: every member self-loops
#: and the lookahead drops every capture, so the position leaves the
#: slots and the counts as they are.  Unpacking it as a plan fails.
IDLE = ()


# ---------------------------------------------------------------------- #
# Set records and their plans
# ---------------------------------------------------------------------- #


class SetRecord:
    """One interned active set and the plans of the positions it meets.

    ``members`` is the sorted tuple of live state ids; ``captures`` (its
    variable transitions as ``(member index, marker set, target)``, in
    member-then-row order), ``plans[c]`` (:data:`IDLE` where the set is
    idle on ``c``), the document-end plan ``plans[-1]`` and the stop
    ``pattern`` are ``None`` until built,
    and ``powers`` maps a class on which the set is a fixed point to the
    squares of its plan's count transfer built so far.  A plan or a
    tuple of squares is stored in one assignment, so threads sharing an
    automaton only ever see a complete one.
    """

    __slots__ = ("members", "quiet", "captures", "plans", "pattern", "powers")

    def __init__(self, members: tuple[int, ...], quiet: bool, num_ids: int) -> None:
        self.members = members
        self.quiet = quiet
        self.captures = () if quiet else None
        self.pattern = self.powers = None
        self.plans: list = [None] * (num_ids + 1)


def _count_transfer(groups) -> tuple:
    """``(gather, adds)`` for a count transfer whose output ``o`` sums the
    counts at ``groups[o]``: a C-level gather of each group's first
    index, and the ``(output, index)`` pairs of the rest, which
    :func:`_added` folds in; on most steps ``adds`` is empty.
    """
    if len(groups) == 1:
        gather = itemgetter(slice(groups[0][0], groups[0][0] + 1))
    else:
        gather = itemgetter(*[group[0] for group in groups])
    adds = tuple((out, index) for out, group in enumerate(groups) for index in group[1:])
    return gather, adds


def _added(gathered: tuple, counts: tuple, adds: tuple) -> tuple:
    total = list(gathered)
    for out, index in adds:
        total[out] += counts[index]
    return tuple(total)


def _groups(gather, adds: tuple, width: int) -> list[list[int]]:
    """The index groups of a count transfer over *width* inputs (the
    inverse of :func:`_count_transfer`)."""
    groups = [[index] for index in gather(tuple(range(width)))]
    for out, index in adds:
        groups[out].append(index)
    return groups


def _squared(matrix: tuple) -> tuple:
    """The square of a count transfer held as rows of ``(index, coeff)``."""
    rows = []
    for row in matrix:
        merged: dict[int, int] = {}
        for middle, coeff in row:
            for index, amount in matrix[middle]:
                merged[index] = merged.get(index, 0) + coeff * amount
        rows.append(tuple(merged.items()))
    return tuple(rows)


def _power(record: SetRecord, symbol: int, transfer: tuple, k: int, counts: tuple) -> tuple:
    """*counts* after *k* more *symbol* positions from the fixed point
    *record*: the binary powers of its plan's count *transfer*, squared
    on first use and kept on the record, at most ``k.bit_length()`` of
    them."""
    powers = record.powers
    if powers is None:
        powers = record.powers = {}
    squares = powers.get(symbol, ())
    if len(squares) < k.bit_length():
        squares = list(squares) or [
            tuple([tuple([(index, 1) for index in group]) for group in _groups(*transfer, len(counts))])
        ]
        while len(squares) < k.bit_length():
            squares.append(_squared(squares[-1]))
        squares = powers[symbol] = tuple(squares)
    for bit in range(k.bit_length()):
        if k >> bit & 1:
            counts = tuple([sum([coeff * counts[index] for index, coeff in row]) for row in squares[bit]])
    return counts


def _splice(cell_nexts: list, end_cell: int, start_cell: int) -> None:
    # append(list): the end cell's next pointer must still be unset, or
    # the automaton is not deterministic.
    if cell_nexts[end_cell] != NIL:
        raise NotDeterministicError(
            "arena append would overwrite a next pointer; the "
            "compiled automaton is not deterministic"
        )
    cell_nexts[end_cell] = start_cell


class SetTable:
    """The interned active sets of one automaton, with their plans.

    A plan is built by running its position on slot *indices*: member
    ``i``'s list is at ``2*i`` (start) and ``2*i + 1`` (end), and the
    capturing phase gathers from the *extended* tuple ``slots + (NIL,
    cell, cell + 1, ...)``, whose tail holds the cells it appends.  Count
    plans group the member indices each output adds up.
    """

    __slots__ = ("compiled", "records", "num_ids", "run_ends")

    def __init__(self, compiled) -> None:
        # A weak proxy: the table lives on the automaton, and a reference
        # back would keep a dropped generation alive until a collection.
        self.compiled = weakref.proxy(compiled)
        self.records: dict[tuple[int, ...], SetRecord] = {}
        self.num_ids = compiled.classing.num_ids
        self.run_ends: list = [None] * self.num_ids

    def record(self, members: tuple[int, ...]) -> SetRecord:
        """The record of the sorted state tuple *members*."""
        record = self.records.get(members)
        if record is None:
            if len(self.records) >= SET_TABLE_CAP:
                self.records.clear()
            silent = self.compiled.silent
            record = self.records[members] = SetRecord(
                members, all([silent[state] for state in members]), self.num_ids
            )
        return record

    def plan(self, record: SetRecord, symbol: int | None) -> tuple:
        """Build *record*'s plan for one position read on class *symbol*
        (``None``: the document's end, which captures but reads nothing).

        ``(target, gather, chain, count_gather, count_adds, cells)``: the
        target set's record (*record* itself when the set is a fixed
        point on *symbol*, ``None`` when every run dies), the gather of
        its slots from the extended tuple (each target's first arrival's
        start and last arrival's end), the read's splices as ``(end
        slot, start slot)`` pairs in grown-set order, the count transfer
        of the whole position, and ``cells``.  That is ``None`` when the
        position captures nothing, else ``(k, markers, starts, ends,
        nexts)``: the ``k`` new cells' marker sets, their sources' starts
        and ends (slot gathers) and their next pointers (an
        extended-tuple gather: the target's list so far, or ``NIL``);
        with ``k == 1`` the last four are a marker set and three indices.

        The lookahead: a capture whose target has no transition on
        *symbol* is left out.  Its cell would be held only by the
        target's list, which the read drops, so the arena loses only
        unreachable nodes.  The document-end plan keeps every capture.

        When the lookahead leaves no capture and every member self-loops
        on *symbol*, the plan is :data:`IDLE`: a fixed point with no
        cells, no splices and an identity gather.  The loops step past
        such a position without a gather and, on a ``bytes`` buffer,
        search for the next class of the :meth:`stop_pattern`.  The
        document-end plan is never idle.
        """
        members = record.members
        class_table = self.compiled.class_table
        captures = self._captures(record)
        if symbol is not None:
            captures = [capture for capture in captures if class_table[capture[2]][symbol] >= 0]
            if not captures and all([class_table[state][symbol] == state for state in members]):
                record.plans[symbol] = IDLE
                return IDLE
        width = 2 * len(members)
        heads = dict(zip(members, range(0, width, 2)))
        tails = dict(zip(members, range(1, width, 2)))
        groups = {state: [index] for index, state in enumerate(members)}
        markers, starts, nexts = [], [], []
        for cell, (index, set_id, target) in enumerate(captures, width + 1):
            markers.append(set_id)
            starts.append(2 * index)
            nexts.append(heads.get(target, width))
            tails.setdefault(target, cell)
            heads[target] = cell
            groups.setdefault(target, []).append(index)
        arrivals: dict[int, list[int]] = {}
        chain = []
        for state in sorted(heads):
            target = state if symbol is None else class_table[state][symbol]
            if target < 0:
                continue
            arrived = arrivals.setdefault(target, [])
            if arrived:
                chain.append((tails[arrived[-1]], heads[state]))
            arrived.append(state)
        targets = tuple(sorted(arrivals))
        cells = None
        if len(markers) == 1:
            cells = (1, markers[0], starts[0], starts[0] + 1, nexts[0])
        elif markers:
            cells = (
                len(markers),
                tuple(markers),
                itemgetter(*starts),
                itemgetter(*[start + 1 for start in starts]),
                itemgetter(*nexts),
            )
        plan = (None, None, (), None, (), None)
        if targets:
            plan = (
                record if targets == members else self.record(targets),
                itemgetter(
                    *[i for state in targets for i in (heads[arrivals[state][0]], tails[arrivals[state][-1]])]
                ),
                tuple(chain),
                *_count_transfer(
                    [[i for arrival in arrivals[state] for i in groups[arrival]] for state in targets]
                ),
                cells,
            )
        record.plans[-1 if symbol is None else symbol] = plan
        return plan

    def _captures(self, record: SetRecord) -> tuple:
        """*record*'s variable transitions as ``(member index, marker set,
        target)``, in member-then-row order (built on first use)."""
        captures = record.captures
        if captures is None:
            variable_table = self.compiled.variable_table
            captures = record.captures = tuple(
                (index, set_id, target)
                for index, state in enumerate(record.members)
                for set_id, target in variable_table[state]
            )
        return captures

    def _moves(self, members: tuple[int, ...]) -> set[int]:
        """Every class id on which some state of *members* does not
        self-loop (the foreign class is one of them)."""
        class_table = self.compiled.class_table
        return {
            class_id
            for state in members
            for class_id in range(self.num_ids)
            if class_table[state][class_id] != state
        }

    def stop_pattern(self, record: SetRecord):
        """The stop pattern of *record*: where its idle stretches end.

        A compiled byte class of every class id on which *record*'s plan
        is not :data:`IDLE`: some member does not self-loop (the foreign
        class is always one), or some capture's target survives the
        letter.  ``pattern.search(buf, pos)`` skips, at C speed, a
        stretch that moves no list and builds no node.  A quiet set has
        no captures, so its stop pattern is every class on which some
        member moves: the lone silent :func:`sprint` chases that.  Built
        on first use: it reads
        every class of the members and capture targets, one step past
        the live set, so the lazy form interns their successors.  Only
        meaningful for byte buffers (at most 256 class ids).
        """
        pattern = record.pattern
        if pattern is None:
            class_table = self.compiled.class_table
            stops = self._moves(record.members)
            for _index, _set_id, target in self._captures(record):
                stops.update([c for c in range(self.num_ids) if class_table[target][c] >= 0])
            pattern = record.pattern = _byte_class(stops)
        return pattern

    def run_end(self, symbol: int):
        """The pattern that finds the end of a run of class *symbol* in a
        ``bytes`` buffer: ``pattern.search(buf, pos)`` stops at the first
        other class id.  Built on first use, one per class."""
        pattern = self.run_ends[symbol]
        if pattern is None:
            pattern = self.run_ends[symbol] = re.compile(
                b"[^" + re.escape(bytes((symbol,))) + b"]"
            )
        return pattern


def _byte_class(class_ids) -> re.Pattern:
    return re.compile(b"[" + b"".join(re.escape(bytes((c,))) for c in sorted(class_ids)) + b"]")


def set_table(compiled) -> SetTable:
    """The :class:`SetTable` cached on *compiled* (built on first use)."""
    table = compiled._set_table
    if table is None:
        table = compiled._set_table = SetTable(compiled)
    return table


# ---------------------------------------------------------------------- #
# The sprint helper (the C-speed quiescent chase)
# ---------------------------------------------------------------------- #


def sprint(table: SetTable, buf, pos: int, n: int, state: int, use_patterns: bool) -> tuple[int, int]:
    """Advance a lone silent run until it stops being boring.

    Returns ``(state, pos)``.  ``state == NO_TARGET`` means the run died at
    ``pos``; otherwise either ``pos == n`` (document exhausted, *state*
    still live) or ``state`` is non-silent (a capturing phase is due at
    ``pos``).  Precondition: *state* is silent and ``pos < n``.

    With a ``bytes`` buffer, stretches where *state* self-loops are skipped
    by its singleton set's :meth:`SetTable.stop_pattern`, so the
    Python-level cost is one iteration per state *change*, not per
    character.
    """
    class_table = table.compiled.class_table
    silent = table.compiled.silent
    if use_patterns:
        while True:
            record = table.record((state,))
            match = (record.pattern or table.stop_pattern(record)).search(buf, pos)
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
    compiled, buf, n, offset, record, slots,
    node_markers, node_positions, node_starts, node_ends, cell_nodes, cell_nexts,
    fast_path, final,
):
    """Algorithm 1 over ``buf[:n]``, building the arena in place.

    ``record`` is the live set's :class:`SetRecord` and ``slots`` its
    members' lists as ``(start, end)`` cell pairs, flattened in member
    order.  Node positions are ``offset + pos``.  The arena arrays are
    appended to in place; the loop state comes back as
    ``(record, slots)`` — ``record`` is ``None`` once every run has died
    — for the next call.  A position runs its set's plan on the next
    class; the capturing phase at position ``offset + n`` runs only when
    *final* (the document ends there; a stream's last call passes an
    empty buffer), by the set's no-letter plan.  An idle plan moves
    nothing: the loop steps past it and, with *fast_path* on a ``bytes``
    buffer, searches the set's stop pattern for the stretch's end.
    """
    table = set_table(compiled)
    use_patterns = fast_path and isinstance(buf, bytes)
    built = -PLAN_CREDIT

    pos = 0
    while True:
        if record.quiet and fast_path and pos < n and len(record.members) == 1:
            state, pos = sprint(table, buf, pos, n, record.members[0], use_patterns)
            if state < 0:
                return None, ()
            record = table.record((state,))
        if pos < n:
            symbol = buf[pos]
            plan = record.plans[symbol]
        elif pos == n and final and not record.quiet:  # once: it leaves pos at n + 1
            symbol = None
            plan = record.plans[-1]
        else:
            return record, slots
        if plan is None:
            built += 1
            if built > pos // PLAN_SHARE:
                return _state_loop(
                    compiled, buf, pos, n, offset, record, slots,
                    node_markers, node_positions, node_starts, node_ends, cell_nodes, cell_nexts,
                    fast_path, final,
                )
            plan = table.plan(record, symbol)
        if plan is IDLE:
            pos += 1
            if use_patterns:
                match = (record.pattern or table.stop_pattern(record)).search(buf, pos)
                pos = n if match is None else match.start()
            continue
        record, gather, chain, _, _, cells = plan
        if cells is not None:
            k, markers, starts, ends, nexts = cells
            node = len(node_markers)
            cell = len(cell_nodes)
            if k == 1:
                slots += (NIL, cell)
                node_markers.append(markers)
                node_positions.append(offset + pos)
                node_starts.append(slots[starts])
                node_ends.append(slots[ends])
                cell_nodes.append(node)
                cell_nexts.append(slots[nexts])
            else:
                slots += (NIL, *range(cell, cell + k))
                node_markers.extend(markers)
                node_positions.extend([offset + pos] * k)
                node_starts.extend(starts(slots))
                node_ends.extend(ends(slots))
                cell_nodes.extend(range(node, node + k))
                cell_nexts.extend(nexts(slots))
        for end_at, start_at in chain:
            _splice(cell_nexts, slots[end_at], slots[start_at])
        if record is None:
            return None, ()
        slots = gather(slots)
        pos += 1


def _state_loop(
    compiled, buf, pos, n, offset, record, slots,
    node_markers, node_positions, node_starts, node_ends, cell_nodes, cell_nexts,
    fast_path, final,
):
    """:func:`arena_loop` from *pos* on, without plans.

    Each live state's list sits in per-call arrays indexed by state id
    (grown as the lazily determinized form interns subsets), one
    current and one pending pair swapped after each reading phase.
    The same phases in the same order build the same arena.  Only a lone
    silent run skips ahead (by :func:`sprint`); every other position is
    stepped, since these are the sets that are rarely met twice.
    """
    table = set_table(compiled)
    class_table = compiled.class_table
    variable_table = compiled.variable_table
    silent = compiled.silent
    use_patterns = fast_path and isinstance(buf, bytes)
    arrays = [[NIL] * compiled.num_states for _ in range(4)]
    cur_start, cur_end, pend_start, pend_end = arrays
    active = list(record.members)
    for index, state in enumerate(active):
        cur_start[state] = slots[2 * index]
        cur_end[state] = slots[2 * index + 1]
    quiet = record.quiet

    def fit(state):  # the new length, once the arrays hold *state*
        for array in arrays:
            array.extend([NIL] * (state + 1 - len(array)))
        return state + 1

    size = len(cur_start)

    while True:
        if quiet and fast_path and pos < n and len(active) == 1:
            state = active[0]
            start, end = cur_start[state], cur_end[state]
            cur_start[state] = NIL
            state, pos = sprint(table, buf, pos, n, state, use_patterns)
            if state < 0:
                return None, ()
            if state >= size:
                size = fit(state)
            cur_start[state], cur_end[state] = start, end
            active[0] = state
            quiet = silent[state]
        if pos >= n and not final:
            break
        symbol = buf[pos] if pos < n else None
        if not quiet:
            alive = len(active)
            for state, old_start, old_end in [
                (state, cur_start[state], cur_end[state])
                for state in active
                if variable_table[state]
            ]:
                for set_id, target in variable_table[state]:
                    if symbol is not None and class_table[target][symbol] < 0:
                        continue  # the lookahead of SetTable.plan
                    if target >= size:
                        size = fit(target)
                    node = len(node_markers)
                    node_markers.append(set_id)
                    node_positions.append(offset + pos)
                    node_starts.append(old_start)
                    node_ends.append(old_end)
                    cell = len(cell_nodes)
                    cell_nodes.append(node)
                    cell_nexts.append(cur_start[target])
                    if cur_start[target] == NIL:
                        cur_end[target] = cell
                        active.append(target)
                    cur_start[target] = cell
            if len(active) > alive:
                active.sort()
        if symbol is None:
            break

        pos += 1
        next_active = []
        quiet = True
        for state in active:
            old_start, old_end = cur_start[state], cur_end[state]
            cur_start[state] = NIL
            target = class_table[state][symbol]
            if target < 0:
                continue
            if target >= size:
                size = fit(target)
            if pend_start[target] == NIL:
                pend_start[target] = old_start
                next_active.append(target)
                quiet = quiet and silent[target]
            else:
                _splice(cell_nexts, pend_end[target], old_start)
            pend_end[target] = old_end
        cur_start, pend_start = pend_start, cur_start
        cur_end, pend_end = pend_end, cur_end
        next_active.sort()
        active = next_active
        if not active:
            return None, ()

    slots = tuple([cell for state in active for cell in (cur_start[state], cur_end[state])])
    return table.record(tuple(active)), slots


def count_loop(compiled, buf, n, fast_path):
    """Algorithm 3 over ``buf[:n]``: one partial-run count per live state.

    Returns ``(record, counts)`` after the final capturing phase: the
    live set's record (``None`` once every run has died) and its
    members' counts, in member order.  Like :func:`arena_loop`, it
    finishes in :func:`_count_state_loop` once plans stop paying, and
    steps past an idle plan with one stop-pattern search.  At any other
    fixed point it stays there while the class repeats: :data:`POWER_MIN`
    plain repeats of its plan's transfer, then powers up to the run's end.
    ``fast_path=False`` turns off the sprint, the searches, the repeats
    and the powers.
    """
    table = set_table(compiled)
    use_patterns = fast_path and isinstance(buf, bytes)
    record = table.record((compiled.initial,))
    counts = (1,)
    built = -PLAN_CREDIT

    pos = 0
    while True:
        if record.quiet and fast_path and pos < n and len(record.members) == 1:
            state, pos = sprint(table, buf, pos, n, record.members[0], use_patterns)
            if state < 0:
                return None, ()
            record = table.record((state,))
        if pos < n:
            symbol = buf[pos]
            plan = record.plans[symbol]
        elif pos == n and not record.quiet:
            symbol = None
            plan = record.plans[-1]
        else:
            return record, counts
        if plan is None:
            built += 1
            if built > pos // PLAN_SHARE:
                return _count_state_loop(compiled, buf, pos, n, record, counts, fast_path)
            plan = table.plan(record, symbol)
        if plan is IDLE:
            pos += 1
            if use_patterns:
                match = (record.pattern or table.stop_pattern(record)).search(buf, pos)
                pos = n if match is None else match.start()
            continue
        target, _, _, gather, adds, _ = plan
        if target is None:
            return None, ()
        counts = _added(gather(counts), counts, adds) if adds else gather(counts)
        pos += 1
        if target is record and fast_path:
            stop = min(n, pos + POWER_MIN)
            while pos < stop and buf[pos] == symbol:
                counts = _added(gather(counts), counts, adds) if adds else gather(counts)
                pos += 1
            if pos == stop < n and use_patterns and buf[pos] == symbol:
                match = table.run_end(symbol).search(buf, pos)
                end = n if match is None else match.start()
                counts = _power(record, symbol, (gather, adds), end - pos, counts)
                pos = end
        record = target


def _count_state_loop(compiled, buf, pos, n, record, counts, fast_path):
    """:func:`count_loop` from *pos* on, without plans: the counts sit in
    two per-call rows indexed by state id, like :func:`_state_loop`'s
    lists."""
    table = set_table(compiled)
    class_table = compiled.class_table
    variable_table = compiled.variable_table
    silent = compiled.silent
    use_patterns = fast_path and isinstance(buf, bytes)
    rows = [[0] * compiled.num_states for _ in range(2)]
    current, pending = rows
    active = list(record.members)
    for state, amount in zip(active, counts):
        current[state] = amount
    quiet = record.quiet

    def fit(state):  # the new length, once the rows hold *state*
        for row in rows:
            row.extend([0] * (state + 1 - len(row)))
        return state + 1

    size = len(current)

    while True:
        if quiet and fast_path and pos < n and len(active) == 1:
            state = active[0]
            amount, current[state] = current[state], 0
            state, pos = sprint(table, buf, pos, n, state, use_patterns)
            if state < 0:
                return None, ()
            if state >= size:
                size = fit(state)
            current[state] = amount
            active[0] = state
            quiet = silent[state]
        if not quiet:
            alive = len(active)
            for state, amount in [
                (state, current[state]) for state in active if variable_table[state]
            ]:
                for _set_id, target in variable_table[state]:
                    if target >= size:
                        size = fit(target)
                    if current[target] == 0:
                        active.append(target)
                    current[target] += amount
            if len(active) > alive:
                active.sort()
        if pos >= n:
            break

        symbol = buf[pos]
        pos += 1
        next_active = []
        quiet = True
        for state in active:
            amount, current[state] = current[state], 0
            target = class_table[state][symbol]
            if target < 0:
                continue
            if target >= size:
                size = fit(target)
            if pending[target] == 0:
                next_active.append(target)
                quiet = quiet and silent[target]
            pending[target] += amount
        current, pending = pending, current
        next_active.sort()
        active = next_active
        if not active:
            return None, ()

    return table.record(tuple(active)), tuple([current[s] for s in active])
