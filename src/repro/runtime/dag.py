"""The compiled result arena: a flat-integer :class:`CompiledResultDag`.

The reference preprocessing (Algorithm 1) materializes one
:class:`~repro.enumeration.dag.DagNode` object per annotated variable
transition and one linked-list cell object per list operation.  Enumeration
(Algorithm 2) and DAG counting then chase Python object pointers.  For the
compiled runtime this module replaces the whole object graph with a *node
arena* — parallel integer arrays:

* ``node_markers[i]`` / ``node_positions[i]`` — the label ``(S, i)`` of DAG
  node ``i``, with the marker set referenced by its interned id;
* ``node_starts[i]`` / ``node_ends[i]`` — node ``i``'s adjacency as a
  ``(start, end)`` cell-index pair (the paper's lazy list, by value);
* ``cell_nodes[c]`` / ``cell_nexts[c]`` — the shared list cells; a payload
  of ``-1`` denotes the ⊥ sink and a next of ``-1`` the unset pointer.

Because lists are plain ``(start, end)`` integer pairs, the paper's
``lazycopy`` becomes a value copy and costs nothing.  Cells only ever
reference nodes created before them, so children always have smaller ids
than their parents and counting is a single forward loop — no recursion, no
memo dictionary.

Enumeration walks the arena with an explicit stack of ``(cell, stop,
path)`` frames, where ``path`` is a parent-pointer chain of ``(marker set,
position, parent)`` labels, so a push never copies the path.  At each ⊥
leaf it yields an *undecoded* :class:`~repro.core.mappings.Mapping` built
with the trusted constructor (``Mapping.__new__`` plus slot stores) that
holds that path and the call's decode tables; nothing is decoded during
the walk.  The mapping decodes itself only when it is read:
:meth:`~repro.core.mappings.Mapping.contents` slices the text straight
from the path and never builds a :class:`~repro.core.spans.Span`, and
every other reader decodes the path once into the ``{variable: Span}``
dict.  The arena guarantees integer endpoints with ``0 ≤ begin ≤ end ≤
|d|``, so re-running the public constructors' checks would only add
delay.  This module and :mod:`repro.core` are the only places the trusted
form may appear (``tools/check_trusted_constructors.py``).  The
per-mapping delay is bounded by the path length (``2·ℓ + 1`` steps for
``ℓ`` variables), just with a far smaller constant than the reference
walker.

Lossless conversions to and from the legacy
:class:`~repro.enumeration.evaluate.ResultDag` are provided for
cross-checking, and :meth:`CompiledResultDag.to_portable` /
:meth:`CompiledResultDag.from_portable` give the flat picklable form the
process-parallel batch mode ships between workers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.mappings import Mapping

if TYPE_CHECKING:
    from repro.enumeration.evaluate import ResultDag

__all__ = ["CompiledResultDag", "NIL"]

#: Sentinel for "no cell" / "⊥ payload" / "unset next pointer".
NIL = -1


class CompiledResultDag:
    """The output of the compiled preprocessing phase, as flat int arrays.

    Duck-compatible with :class:`~repro.enumeration.evaluate.ResultDag` for
    everything downstream code uses — iteration, :meth:`mappings`,
    :meth:`count`, :meth:`node_count`, :meth:`is_empty` and
    :attr:`document_length` — without ever materializing ``DagNode``
    objects.

    ``tables`` is the compiled automaton the arena was produced from (a
    :class:`~repro.runtime.subset.CompiledSubsetEVA`); it provides the
    interned ``marker_sets`` for decoding and the ``state_objects`` /
    ``source`` needed to rebuild a legacy :class:`ResultDag`.

    ``final_entries`` holds one ``(state_id, start, end)`` triple per
    accepting state that is live at the end of the document.  The arena may
    contain *garbage* nodes (runs that died before the end of the
    document); they are simply never reached by enumeration, and
    :meth:`node_count` reports only reachable nodes, matching the legacy
    structure where dead branches are garbage-collected.
    """

    __slots__ = (
        "tables",
        "document_length",
        "node_markers",
        "node_positions",
        "node_starts",
        "node_ends",
        "cell_nodes",
        "cell_nexts",
        "final_entries",
    )

    def __init__(
        self,
        tables,
        document_length: int,
        node_markers: list[int],
        node_positions: list[int],
        node_starts: list[int],
        node_ends: list[int],
        cell_nodes: list[int],
        cell_nexts: list[int],
        final_entries: list[tuple[int, int, int]],
    ) -> None:
        self.tables = tables
        self.document_length = document_length
        self.node_markers = node_markers
        self.node_positions = node_positions
        self.node_starts = node_starts
        self.node_ends = node_ends
        self.cell_nodes = cell_nodes
        self.cell_nexts = cell_nexts
        self.final_entries = final_entries

    # ------------------------------------------------------------------ #
    # ResultDag-compatible queries
    # ------------------------------------------------------------------ #

    @property
    def automaton(self):
        """The source automaton (for parity with :class:`ResultDag`)."""
        return self.tables.source

    def is_empty(self) -> bool:
        """Whether the spanner produced no output mapping at all."""
        return not self.final_entries

    def num_nodes(self) -> int:
        """The total number of arena nodes, including unreachable ones."""
        return len(self.node_markers)

    def __iter__(self) -> Iterator[Mapping]:
        return self.mappings()

    def mappings(self, keep: frozenset[str] | None = None) -> Iterator[Mapping]:
        """Enumerate the output mappings (Algorithm 2) on integer arrays.

        A depth-first walk over the arena with an explicit stack; each
        frame is ``(cell, stop, path)``.  ``path`` is a parent-pointer
        chain of ``(marker_set_id, position, parent)`` labels, so a push
        is one tuple, not a copy of the path; the chain ends in ``()``.
        The walk runs from the end of the document backwards, so following
        the parents of a ⊥ leaf's path visits positions in increasing
        order.

        A ⊥ payload completes one path, and the walk yields it undecoded:
        a :class:`Mapping` built with the trusted ``Mapping.__new__`` plus
        slot stores, holding the path and the call's ``(opens_by_set,
        closes_by_set, document_length)`` decode tables.  Nothing is
        decoded here: ``contents`` slices the text from the path without
        building a :class:`~repro.core.spans.Span`, and any other reader
        decodes the path once (:class:`~repro.core.mappings.Mapping`).
        The arena guarantees what the public constructors would check, so
        the output equals, in order and in each mapping's variable order,
        what ``Mapping({x: Span(i, j), ...})`` would build.

        When *keep* is given, only those variables are decoded — the
        arena-level projection of :mod:`repro.runtime.operators`: markers
        of projected-away variables never allocate a
        :class:`~repro.core.spans.Span` nor a slice (the resulting
        mappings are not deduplicated; projection callers do that).  The
        decode tables are filtered once per call, not per step.
        """
        cell_nodes = self.cell_nodes
        cell_nexts = self.cell_nexts
        node_markers = self.node_markers
        node_positions = self.node_positions
        node_starts = self.node_starts
        node_ends = self.node_ends
        opens_by_set, closes_by_set = self.tables.marker_decode_tables()
        if keep is not None:
            opens_by_set = tuple(
                tuple(variable for variable in opened if variable in keep)
                for opened in opens_by_set
            )
            closes_by_set = tuple(
                tuple(variable for variable in closed if variable in keep)
                for closed in closes_by_set
            )
        tables = (opens_by_set, closes_by_set, self.document_length)
        new_mapping = Mapping.__new__

        for _state_id, start, end in self.final_entries:
            stack = [(start, end, ())]
            while stack:
                cell, stop, path = stack.pop()
                while cell != NIL:
                    node = cell_nodes[cell]
                    following = NIL if cell == stop else cell_nexts[cell]
                    if node == NIL:
                        # ⊥ reached: `path` is a complete run.
                        mapping = new_mapping(Mapping)
                        mapping._assignment = None
                        mapping._path = path
                        mapping._tables = tables
                        mapping._hash = None
                        yield mapping
                        cell = following
                        continue
                    if following != NIL:
                        stack.append((following, stop, path))
                    path = (node_markers[node], node_positions[node], path)
                    cell = node_starts[node]
                    stop = node_ends[node]

    def count(self) -> int:
        """Count the ⊥-terminated paths (Algorithm 3 on the arena).

        Cells only reference nodes with smaller ids, so a single forward
        pass computes every node's path count without recursion; the
        answer is the sum over the final entry lists.
        """
        cell_nodes = self.cell_nodes
        cell_nexts = self.cell_nexts
        node_starts = self.node_starts
        node_ends = self.node_ends

        counts = [0] * len(node_starts)

        def list_total(start: int, end: int) -> int:
            total = 0
            cell = start
            while cell != NIL:
                node = cell_nodes[cell]
                total += 1 if node == NIL else counts[node]
                if cell == end:
                    break
                cell = cell_nexts[cell]
            return total

        for node in range(len(node_starts)):
            counts[node] = list_total(node_starts[node], node_ends[node])
        return sum(list_total(start, end) for _state, start, end in self.final_entries)

    def node_count(self) -> int:
        """The number of distinct arena nodes reachable from the final lists."""
        cell_nodes = self.cell_nodes
        cell_nexts = self.cell_nexts
        seen = [False] * len(self.node_markers)
        stack: list[int] = []

        def push_list(start: int, end: int) -> None:
            cell = start
            while cell != NIL:
                node = cell_nodes[cell]
                if node != NIL and not seen[node]:
                    seen[node] = True
                    stack.append(node)
                if cell == end:
                    break
                cell = cell_nexts[cell]

        for _state, start, end in self.final_entries:
            push_list(start, end)
        while stack:
            node = stack.pop()
            push_list(self.node_starts[node], self.node_ends[node])
        return sum(seen)

    # ------------------------------------------------------------------ #
    # Lossless conversion to/from the legacy object DAG
    # ------------------------------------------------------------------ #

    def to_result_dag(self) -> ResultDag:
        """Rebuild the legacy :class:`ResultDag` (for cross-checking).

        Node sharing is preserved: arena node ``i`` maps one-to-one onto a
        rebuilt :class:`DagNode`, so path counts and enumeration output are
        identical.  Only reachable nodes are rebuilt.
        """
        from repro.enumeration.dag import BOTTOM, DagNode
        from repro.enumeration.evaluate import ResultDag
        from repro.enumeration.lazylist import LazyList

        marker_sets = self.tables.marker_sets
        state_objects = self.tables.state_objects
        built: dict[int, DagNode] = {}

        def rebuild_list(start: int, end: int) -> LazyList:
            entries: list[int] = []
            cell = start
            while cell != NIL:
                entries.append(self.cell_nodes[cell])
                if cell == end:
                    break
                cell = self.cell_nexts[cell]
            lazy_list = LazyList()
            for node in reversed(entries):
                lazy_list.add(BOTTOM if node == NIL else rebuild_node(node))
            return lazy_list

        def rebuild_node(node: int) -> DagNode:
            if node not in built:
                # Children have smaller ids, so the recursion terminates and
                # is bounded by the longest ancestor chain; rebuild in id
                # order instead to keep it iterative for deep DAGs.
                for child in self._reachable_in_id_order(node):
                    if child not in built:
                        built[child] = DagNode(
                            marker_sets[self.node_markers[child]],
                            self.node_positions[child],
                            rebuild_list(self.node_starts[child], self.node_ends[child]),
                        )
            return built[node]

        final_lists = {
            state_objects[state_id]: rebuild_list(start, end)
            for state_id, start, end in self.final_entries
        }
        return ResultDag(self.tables.source, self.document_length, final_lists)

    def _reachable_in_id_order(self, root: int) -> list[int]:
        """Ids of nodes reachable from *root* (inclusive), ascending."""
        seen = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            cell = self.node_starts[node]
            end = self.node_ends[node]
            while cell != NIL:
                child = self.cell_nodes[cell]
                if child != NIL and child not in seen:
                    seen.add(child)
                    stack.append(child)
                if cell == end:
                    break
                cell = self.cell_nexts[cell]
        return sorted(seen)

    @classmethod
    def from_result_dag(cls, result: ResultDag, tables) -> "CompiledResultDag":
        """Intern a legacy :class:`ResultDag` into an arena (lossless).

        ``tables`` must be the compiled automaton whose ``marker_set_index``
        covers the DAG's labels and whose ``state_id`` maps its final
        states (subsets of the automaton's source states) to ids.
        """
        from repro.enumeration.dag import BOTTOM, DagNode
        from repro.enumeration.lazylist import LazyList

        marker_index = tables.marker_set_index
        state_id = tables.state_id
        node_ids: dict[int, int] = {}
        node_markers: list[int] = []
        node_positions: list[int] = []
        node_starts: list[int] = []
        node_ends: list[int] = []
        cell_nodes: list[int] = []
        cell_nexts: list[int] = []

        def intern_list(lazy_list: LazyList) -> tuple[int, int]:
            entries = [
                NIL if child is BOTTOM else node_ids[id(child)] for child in lazy_list
            ]
            if not entries:
                return NIL, NIL
            start = len(cell_nodes)
            for index, payload in enumerate(entries):
                cell_nodes.append(payload)
                cell_nexts.append(
                    start + index + 1 if index + 1 < len(entries) else NIL
                )
            return start, start + len(entries) - 1

        def visit(root: DagNode) -> None:
            stack: list[tuple[DagNode, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if id(node) in node_ids:
                    continue
                if expanded:
                    node_ids[id(node)] = len(node_markers)
                    start, end = intern_list(node.adjacency)
                    node_markers.append(marker_index[node.markers])
                    node_positions.append(node.position)
                    node_starts.append(start)
                    node_ends.append(end)
                else:
                    stack.append((node, True))
                    for child in node.adjacency:
                        if child is not BOTTOM and id(child) not in node_ids:
                            stack.append((child, False))

        final_entries: list[tuple[int, int, int]] = []
        for state, lazy_list in result.final_lists.items():
            for entry in lazy_list:
                if entry is not BOTTOM:
                    visit(entry)
            start, end = intern_list(lazy_list)
            final_entries.append((state_id(state), start, end))

        return cls(
            tables,
            result.document_length,
            node_markers,
            node_positions,
            node_starts,
            node_ends,
            cell_nodes,
            cell_nexts,
            final_entries,
        )

    # ------------------------------------------------------------------ #
    # Portable (process-crossing) form
    # ------------------------------------------------------------------ #

    def to_portable(self) -> tuple:
        """Flatten into picklable tuples of ints.

        Final states are exported through ``tables.portable_state_key`` so
        the triple survives a process boundary even when the receiving side
        interned its states in a different order (the on-the-fly subset
        runtime does).
        """
        portable_key = self.tables.portable_state_key
        return (
            self.document_length,
            tuple(self.node_markers),
            tuple(self.node_positions),
            tuple(self.node_starts),
            tuple(self.node_ends),
            tuple(self.cell_nodes),
            tuple(self.cell_nexts),
            tuple(
                (portable_key(state_id), start, end)
                for state_id, start, end in self.final_entries
            ),
        )

    @classmethod
    def from_portable(cls, portable: tuple, tables) -> "CompiledResultDag":
        """Reattach a portable arena to a compiled automaton."""
        (
            document_length,
            node_markers,
            node_positions,
            node_starts,
            node_ends,
            cell_nodes,
            cell_nexts,
            finals,
        ) = portable
        resolve = tables.resolve_state_key
        return cls(
            tables,
            document_length,
            list(node_markers),
            list(node_positions),
            list(node_starts),
            list(node_ends),
            list(cell_nodes),
            list(cell_nexts),
            [(resolve(key), start, end) for key, start, end in finals],
        )

    def __repr__(self) -> str:
        return (
            f"CompiledResultDag(nodes={len(self.node_markers)}, "
            f"cells={len(self.cell_nodes)}, finals={len(self.final_entries)})"
        )
