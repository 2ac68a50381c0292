"""The compiled runtime's one automaton: a lazily determinized sequential eVA.

The paper's Section 4 closes by noting that its translations "can be fed to
Algorithm 1 on-the-fly, thus rarely needing to materialize the entire
deterministic seVA".  Every compiled request runs that remark: the
reference implementation (:mod:`repro.enumeration.onthefly`) hashes
``frozenset`` subsets of original states on every phase of every document,
and this module is its compiled counterpart:

* the *possibly non-deterministic* sequential eVA is interned once into
  integer tables (states, symbols and marker sets get contiguous ids);
  alphabet symbols with identical letter behaviour across **all** base
  states collapse into one equivalence class, and documents are
  translated into cached class-id buffers (:mod:`repro.runtime.encoding`
  — one C-level pass per document and classing signature);
* reachable subset-states are interned to integers **on demand** — a
  subset is hashed exactly once, when first discovered, and from then on
  it is just an int;
* a :class:`CompiledSubsetEVA` exposes the tables the Algorithm-1 loops of
  :mod:`repro.runtime.kernel` read — ``class_table[s][c]``,
  ``variable_table[s]``, ``silent[s]``, ``is_final[s]`` and ``initial``
  — and fills them on first read: each letter row is a ``dict`` whose
  ``__missing__`` discovers the successor of one (subset, class) pair,
  and the variable table a ``dict`` whose ``__missing__`` discovers one
  subset's variable row.  Discovered entries stay cached on the
  instance, so they are reused across positions *and across every
  document* evaluated with it, and no request ever calls the up-front
  (potentially exponential)
  :func:`~repro.automata.transforms.determinize`.

The loops' active-set plans read these tables only while a plan is built,
so a subset discovered mid-document is just one more state id.  The
quiescent sprint applies too: a subset whose members all lack variable
transitions is *silent*, and a lone silent subset sprints through byte
buffers via its set's compiled stop pattern.  The subset automaton is
deterministic by construction, so the loops' lazy-list append discipline
holds and every path of the resulting arena yields a distinct mapping.
Interning takes a lock, so threads may share one instance.

What an instance keeps is bounded by **generations**: past
:data:`SUBSET_CAP` interned subsets, :meth:`CompiledSubsetEVA.renewed`
hands out a fresh automaton over the same sequential eVA.  Holders (the
:class:`~repro.spanners.Spanner` facade, fused leaves, batch loops) ask
for it at a call boundary, so arenas already built keep the generation
they were built on; a stream moves its live set onto the next generation
between two reads (:mod:`repro.runtime.streaming`).  A generation refers
to its successor only weakly, so a dropped one is freed once the last of
its holders is, whatever older generation is still held.
"""

from __future__ import annotations

import threading
import weakref

from repro.core.errors import CompilationError
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet
from repro.runtime.encoding import SymbolClassing

__all__ = [
    "NO_TARGET",
    "SUBSET_CAP",
    "CompiledSubsetEVA",
    "classify_columns",
    "generation_swaps",
    "marker_decode_tables_for",
]

#: Sentinel target meaning "no transition" in a letter row.
NO_TARGET = -1

#: Subsets one generation may intern before :meth:`CompiledSubsetEVA.renewed`
#: starts a fresh one.  Measured (2-core Xeon, CPython 3.11) by counting
#: ``.*a`` + k dots + ``x{b}.*`` over 20k-character random ``ab`` texts: a
#: subset costs about 1.2 KB (tracemalloc), so a generation holds about
#: 20 MB at the cap, and a text on a fresh generation costs 1.4x (k=8, 517
#: subsets) to 4.8x (k=12, 8,197 subsets) what it costs on a warm one.  At
#: 2^14 the k <= 12 family stays warm across texts, the perfbench
#: workloads intern 10 to 23 subsets, and six k=16 texts (about 18,600
#: subsets each) leave max RSS at 41 MB, where one unbounded automaton
#: grew to 138 MB.
SUBSET_CAP = 1 << 14

_swap_lock = threading.Lock()
_swaps = 0


def generation_swaps() -> int:
    """How many generations this process has started past :data:`SUBSET_CAP`."""
    return _swaps


def marker_decode_tables_for(marker_sets) -> tuple[tuple, tuple]:
    """Per-marker-set-id ``(opened, closed)`` variable-name tuples, so the
    arena enumerator decodes each run step with two tuple iterations."""
    opens = tuple(tuple(sorted(s.opened())) for s in marker_sets)
    closes = tuple(tuple(sorted(s.closed())) for s in marker_sets)
    return opens, closes


def classify_columns(columns) -> tuple[list[int], list]:
    """Group identical *columns* into equivalence classes.

    Returns ``(class_of, representatives)``: the class id of each column in
    input order, and one representative column per class id.  Collapses
    alphabet symbols with identical transition behaviour into one
    character class.
    """
    class_of: list[int] = []
    index: dict = {}
    representatives: list = []
    for column in columns:
        class_id = index.get(column)
        if class_id is None:
            class_id = len(representatives)
            index[column] = class_id
            representatives.append(column)
        class_of.append(class_id)
    return class_of, representatives


class _LetterRow(dict):
    """One subset's letter row: ``row[c]`` discovers a missing successor.

    The successor on class ``c`` is the union of the member states'
    targets, interned as a subset, or ``NO_TARGET`` when every member run
    dies (always so on the foreign class, whose base columns are empty).
    """

    __slots__ = ("owner", "members")

    def __init__(self, owner: "CompiledSubsetEVA", members, successors=()) -> None:
        super().__init__(successors)
        self.owner = owner
        self.members = members

    def __missing__(self, symbol_class: int) -> int:
        base_letter = self.owner.base_letter_by_class
        targets: set[int] = set()
        for state in self.members:
            targets.update(base_letter[state][symbol_class])
        successor = self[symbol_class] = (
            self.owner.intern_subset(tuple(sorted(targets))) if targets else NO_TARGET
        )
        return successor


class _VariableTable(dict):
    """The variable rows by subset id: ``table[s]`` discovers a missing row.

    Targets of the member states are grouped by marker-set id, and each
    group's union is interned as a subset.
    """

    __slots__ = ("owner",)

    def __init__(self, owner: "CompiledSubsetEVA", rows=()) -> None:
        super().__init__(rows)
        self.owner = owner

    def __missing__(self, subset_id: int) -> tuple[tuple[int, int], ...]:
        owner = self.owner
        grouped: dict[int, set[int]] = {}
        base_variable = owner.base_variable
        for state in owner.subset_members[subset_id]:
            for set_id, target in base_variable[state]:
                grouped.setdefault(set_id, set()).add(target)
        row = self[subset_id] = tuple(
            (set_id, owner.intern_subset(tuple(sorted(targets))))
            for set_id, targets in sorted(grouped.items())
        )
        return row


class CompiledSubsetEVA:
    """A lazily determinized, integer-indexed view of a sequential eVA.

    The instance is **stateful**: its subset tables grow monotonically as
    documents are evaluated, which is exactly the point — discovery work is
    paid once per reachable subset, not once per document.  The base
    automaton's interning (states, symbols, marker sets, symbol classes)
    happens eagerly in the constructor and is deterministic, so marker-set
    ids are stable across processes; subset ids are *not* (each process
    discovers subsets in its own order), which is why portable results key
    final states by the subset's member tuple (see
    :meth:`portable_state_key`).  Its growth is bounded by generations
    (:meth:`renewed`).
    """

    def __init__(self, automaton: ExtendedVA) -> None:
        if not automaton.has_initial:
            raise CompilationError("cannot compile an automaton without an initial state")
        self.source = automaton

        # --- eager interning of the (non-deterministic) base automaton --- #
        base_initial = automaton.initial
        base_states = (base_initial, *sorted(
            (s for s in automaton.states if s != base_initial), key=repr
        ))
        self.base_state_objects: tuple = base_states
        base_index = self._base_index = {state: i for i, state in enumerate(base_states)}
        self.symbols: tuple[str, ...] = tuple(sorted(automaton.alphabet()))
        self.symbol_index = {symbol: i for i, symbol in enumerate(self.symbols)}

        marker_sets: list[MarkerSet] = []
        marker_set_index: dict[MarkerSet, int] = {}
        base_variable: list[tuple[tuple[int, int], ...]] = []
        base_letter: list[tuple[tuple[int, ...], ...]] = []
        for state in base_states:
            pairs: list[tuple[int, int]] = []
            for marker_set, target in sorted(
                automaton.variable_transitions_from(state), key=lambda pair: repr(pair)
            ):
                set_id = marker_set_index.get(marker_set)
                if set_id is None:
                    set_id = len(marker_sets)
                    marker_set_index[marker_set] = set_id
                    marker_sets.append(marker_set)
                pairs.append((set_id, base_index[target]))
            base_variable.append(tuple(pairs))
            row: list[list[int]] = [[] for _ in self.symbols]
            for symbol, target in automaton.letter_transitions_from(state):
                row[self.symbol_index[symbol]].append(base_index[target])
            base_letter.append(tuple(tuple(sorted(targets)) for targets in row))
        self.marker_sets: tuple[MarkerSet, ...] = tuple(marker_sets)
        self.marker_set_index = marker_set_index
        self.base_variable = tuple(base_variable)
        self.base_letter = tuple(base_letter)
        self.base_finals = frozenset(base_index[s] for s in automaton.finals)

        # --- symbol equivalence classes over the base letter columns --- #
        # Two symbols share a class iff every base state maps them to the
        # same target set; one trailing empty foreign column absorbs the
        # characters the automaton does not name unless it reads OTHER.
        columns = (
            tuple(zip(*self.base_letter)) if self.base_letter and self.symbols else ()
        )
        class_of, representatives = classify_columns(columns)
        self.classing = SymbolClassing(self.symbols, class_of)
        if representatives:
            self.base_letter_by_class = tuple(
                row + ((),) for row in zip(*representatives)
            )
        else:
            self.base_letter_by_class = tuple(((),) for _ in base_states)
        #: base ids with an extended variable transition (a subset holding
        #: none of them is silent)
        self._base_loud = frozenset(
            state for state, row in enumerate(self.base_variable) if row
        )

        # --- lazily grown subset tables, read by the kernel loops --- #
        # The rows reach back through a weak proxy, so a dropped
        # generation is freed by reference counting alone, at once.
        self._proxy = weakref.proxy(self)
        #: member tuple (sorted base ids) per subset id
        self.subset_members: list[tuple[int, ...]] = []
        self._subset_index: dict[tuple[int, ...], int] = {}
        #: per-subset letter rows, filled per class on first read
        self.class_table: list[_LetterRow] = []
        #: per-subset (marker_set_id, target_subset_id) rows, on first read
        self.variable_table = _VariableTable(self._proxy)
        self.is_final: list[bool] = []
        #: per-subset "all members silent" flag (quiescent fast path)
        self.silent: list[bool] = []
        #: per-subset settled-sink flag, ``None`` until asked (streaming)
        self._settled: list[bool | None] = []
        #: frozensets of base state objects, for ResultDag conversion
        self._state_objects: list[frozenset] = []
        self._marker_decode: tuple[tuple, tuple] | None = None
        #: the kernel loops' interned active sets (repro.runtime.kernel),
        #: built on demand and never pickled
        self._set_table = None
        self._intern_lock = threading.Lock()
        #: a weak reference to the next generation renewed() built, so
        #: holders of this one share it while any of them keeps it, and a
        #: generation never keeps its successors alive
        self._successor: weakref.ref | None = None

        self.initial = self.intern_subset((0,))

    def __getstate__(self) -> dict:
        # Only plain data crosses a process boundary: the discovered rows
        # as dicts; the lazy tables and the lock are rebuilt on load.
        state = {
            **self.__dict__,
            "class_table": [dict(row) for row in self.class_table],
            "variable_table": dict(self.variable_table),
            "_set_table": None,
            "_successor": None,
        }
        del state["_intern_lock"], state["_proxy"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._proxy = weakref.proxy(self)
        self.class_table = [
            _LetterRow(self._proxy, members, row)
            for members, row in zip(self.subset_members, state["class_table"])
        ]
        self.variable_table = _VariableTable(self._proxy, state["variable_table"])
        self._intern_lock = threading.Lock()

    def intern_subset(self, members: tuple[int, ...]) -> int:
        """The id of the subset-state *members* (a sorted tuple of base ids)."""
        subset_id = self._subset_index.get(members)
        if subset_id is not None:
            return subset_id
        with self._intern_lock:
            subset_id = self._subset_index.get(members)
            if subset_id is None:
                # Every per-subset table gets its entry before the index
                # does, so an id another thread can read has its rows.
                subset_id = len(self.subset_members)
                self.class_table.append(_LetterRow(self._proxy, members))
                self.is_final.append(not self.base_finals.isdisjoint(members))
                self.silent.append(self._base_loud.isdisjoint(members))
                self._settled.append(None)
                self._state_objects.append(
                    frozenset(self.base_state_objects[state] for state in members)
                )
                self.subset_members.append(members)
                self._subset_index[members] = subset_id
        return subset_id

    # ------------------------------------------------------------------ #
    # Introspection and the CompiledResultDag provider protocol
    # ------------------------------------------------------------------ #

    @property
    def num_base_states(self) -> int:
        """The number of states of the underlying non-deterministic eVA."""
        return len(self.base_state_objects)

    @property
    def num_states(self) -> int:
        """The number of subset-states discovered so far."""
        return len(self.subset_members)

    num_subset_states = num_states

    @property
    def num_classes(self) -> int:
        """Distinct symbol equivalence classes (excluding the foreign class)."""
        return self.classing.num_classes

    @property
    def state_objects(self) -> list[frozenset]:
        """Subset-state objects (frozensets of base states), by subset id."""
        return self._state_objects

    def state_id(self, subset: frozenset) -> int:
        """The id of the subset-state object *subset* (a frozenset of base
        states), interned if no run has reached it yet (conversion only)."""
        return self.intern_subset(tuple(sorted(self._base_index[state] for state in subset)))

    def marker_decode_tables(self) -> tuple[tuple, tuple]:
        """Per-marker-set-id ``(opened, closed)`` variable-name tuples."""
        if self._marker_decode is None:
            self._marker_decode = marker_decode_tables_for(self.marker_sets)
        return self._marker_decode

    def portable_state_key(self, state_id: int) -> tuple[int, ...]:
        """A process-stable key: the subset's member tuple of base ids
        (base interning is deterministic; subset discovery order is not)."""
        return self.subset_members[state_id]

    def resolve_state_key(self, key: tuple[int, ...]) -> int:
        """Re-intern a member tuple received from another process."""
        return self.intern_subset(tuple(key))

    def encode(self, document: object):
        """The cached class-id :class:`~repro.runtime.encoding.EncodedDocument`
        of *document* under this automaton's classing."""
        return self.classing.encode(document)

    def settled(self, subset_id: int) -> bool:
        """Whether runs reaching *subset_id* are settled the moment they arrive.

        A settled sink is final, silent (its list is never snapshotted
        into new DAG nodes) and self-loops on every class a character can
        read as — the named classes and OTHER's, or else the foreign one,
        which no subset survives — so no character can move or kill the
        run.  Mappings parked there are in the output of every
        continuation of a stream.  Computed on first ask and kept beside
        the subset's rows.
        """
        flag = self._settled[subset_id]
        if flag is None:
            row = self.class_table[subset_id]
            classing = self.classing
            flag = self._settled[subset_id] = (
                self.is_final[subset_id]
                and self.silent[subset_id]
                and all(
                    row[symbol_class] == subset_id
                    for symbol_class in (*range(classing.num_classes), classing.other_class)
                )
            )
        return flag

    def renewed(self) -> "CompiledSubsetEVA":
        """This automaton, or its newest generation once it holds more
        than :data:`SUBSET_CAP` subsets.

        The next generation is a fresh automaton over the same sequential
        eVA, shared by every holder that asks while one of them keeps it,
        and renewed in turn if it is past the cap too; callers ask at a
        call boundary and keep what they get for the whole call.
        """
        if len(self.subset_members) <= SUBSET_CAP:
            return self
        global _swaps
        with _swap_lock:
            successor = self._successor() if self._successor is not None else None
            if successor is None:
                successor = CompiledSubsetEVA(self.source)
                self._successor = weakref.ref(successor)
                _swaps += 1
        return successor.renewed()

    def __repr__(self) -> str:
        return (
            f"CompiledSubsetEVA(base_states={self.num_base_states}, "
            f"subsets={self.num_subset_states}, symbols={len(self.symbols)}, "
            f"classes={self.num_classes})"
        )
