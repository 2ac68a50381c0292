"""Streaming evaluation: chunk-fed documents, incremental emission.

The preprocessing phase of the paper (Algorithm 1) is a single
left-to-right pass — it never looks ahead and never looks back further
than the lists it already built.  That makes it naturally *online*, yet
every other engine in this repository requires the whole document in
memory before emitting anything.  This module closes the gap with a
:class:`StreamingEvaluator` that accepts the document in chunks
(:meth:`~StreamingEvaluator.feed`) and finalizes on
:meth:`~StreamingEvaluator.finish`:

* each chunk is translated with the compiled automaton's cached
  :class:`~repro.runtime.encoding.SymbolClassing` tables (the same
  C-level ``bytes.translate`` pass the whole-document engines use, just
  per chunk), so the evaluator never materializes a whole-document
  class-id buffer;
* the per-position loop is :func:`~repro.runtime.kernel.arena_loop`,
  the very loop :func:`~repro.runtime.engine.evaluate_compiled_arena`
  runs over a whole document, quiescent-run sprint included: the live
  state (the active set's record and its tuple of ``(start, end)``
  slot pairs, plus the arena arrays) is passed in and handed back
  across chunk boundaries, so a sprint interrupted by a chunk boundary
  resumes at C speed in the next chunk, and the set plans the loop
  built in one chunk serve every later one;
* ``bytes`` chunks are decoded by an incremental UTF-8 decoder, so a
  multi-byte character split across two chunks is reassembled before it
  reaches the automaton.

Two output modes:

``emit="on_finish"``
    :meth:`finish` returns the *same* :class:`~repro.runtime.dag.CompiledResultDag`
    arena the whole-document engine builds — array for array (a unit test
    pins the identity), so everything downstream (enumeration, counting,
    the batch portable form) works unchanged.

``emit="incremental"``
    :meth:`feed` returns the mappings that became *settled* during the
    chunk.  A mapping is settled when its run has reached a **settled
    sink** — a final subset with no variable transitions that self-loops
    on every class a character can read as, ``OTHER``'s included
    (:meth:`~repro.runtime.subset.CompiledSubsetEVA.settled`).  Runs
    parked there can never gain markers, never leave the state and never
    die, so their mappings are in the output of *every* continuation of
    the stream — emitting them early is exact, and the constant-delay
    guarantee carries over (each settled mapping is decoded by the same
    bounded arena walk Algorithm 2 performs).  An automaton without an
    ``OTHER`` column (a pattern with no wildcard) kills every run on a
    character it does not name, so it has no settled sink and emits at
    :meth:`~StreamingEvaluator.finish`.  Flushed list heads are cut from
    the live structure and the arena is compacted to the cells still
    reachable from live runs, so the buffered arena stays bounded by the
    in-flight state instead of growing with the whole output (the
    ``tailing-logs`` property test pins ``peak_arena_cells`` strictly
    below the whole-document arena).

The evaluator runs the lazily determinized
:class:`~repro.runtime.subset.CompiledSubsetEVA` every compiled request
runs.  A subset discovered mid-stream is one more state id, and whether
it is a settled sink is asked of it when a run first holds it there.
A stream reads at most :data:`~repro.runtime.subset.SUBSET_CAP`
characters per loop call, and between two calls it moves its live set
onto the automaton's next generation once its own holds more than
``SUBSET_CAP`` subsets, so what a stream keeps stays bounded however
long it runs and however large its chunks.
"""

from __future__ import annotations

import codecs

from repro.core.errors import EvaluationError, StreamingError
from repro.core.mappings import Mapping
from repro.runtime.dag import NIL, CompiledResultDag
from repro.runtime.engine import _collect_arena
from repro.runtime import subset
from repro.runtime.kernel import arena_loop, set_table
from repro.runtime.subset import CompiledSubsetEVA

__all__ = [
    "EMIT_MODES",
    "StreamedResult",
    "StreamingEvaluator",
    "evaluate_streaming",
]

EMIT_MODES = ("on_finish", "incremental")

#: Compact the arena only once it has doubled past this floor, so tiny
#: streams never pay the rebuild and long streams amortize it to O(1)
#: per retained cell.
COMPACT_FLOOR_CELLS = 64


class StreamedResult:
    """The ``emit="incremental"`` result: settled mappings plus a residue.

    ``settled`` holds the mappings that were flushed during the stream
    (in settlement order — the order mappings became certain, not the
    arena enumeration order); ``residual`` is the
    :class:`CompiledResultDag` of the runs that only resolved at
    :meth:`StreamingEvaluator.finish`.  Iteration yields the retained
    mappings (settled first), and :meth:`count` / :meth:`is_empty`
    mirror the arena result API.  Under ``retain_settled=False`` the
    ``settled`` list is empty — those mappings were delivered through
    ``feed()`` only — but ``settled_count`` still carries the true
    total, so :meth:`count` and :meth:`is_empty` stay exact; iteration
    then yields only the residual.
    """

    __slots__ = ("settled", "residual", "settled_count")

    def __init__(
        self,
        settled: list[Mapping],
        residual: CompiledResultDag,
        settled_count: int | None = None,
    ) -> None:
        self.settled = settled
        self.residual = residual
        self.settled_count = len(settled) if settled_count is None else settled_count

    @property
    def document_length(self) -> int:
        return self.residual.document_length

    def __iter__(self):
        yield from self.settled
        yield from self.residual

    def count(self) -> int:
        return self.settled_count + self.residual.count()

    def is_empty(self) -> bool:
        return not self.settled_count and self.residual.is_empty()

    def __repr__(self) -> str:
        return (
            f"StreamedResult(settled={self.settled_count}, "
            f"residual={self.residual!r})"
        )


class StreamingEvaluator:
    """Algorithm 1 fed one chunk at a time.

    Create one evaluator per document stream, :meth:`feed` it ``str`` or
    ``bytes`` chunks (in any mix — partial UTF-8 sequences are carried
    between byte chunks), then :meth:`finish` it exactly once.  The
    evaluator holds all of its stream's state, so any number of
    evaluators may share one automaton.
    """

    def __init__(
        self,
        compiled: CompiledSubsetEVA,
        *,
        emit: str = "on_finish",
        fast_path: bool = True,
        retain_settled: bool = True,
    ) -> None:
        if not isinstance(compiled, CompiledSubsetEVA):
            raise StreamingError(
                "streaming runs a CompiledSubsetEVA "
                f"(got {type(compiled).__name__})"
            )
        if emit not in EMIT_MODES:
            raise StreamingError(
                f"unknown emit mode {emit!r}; expected one of {EMIT_MODES}"
            )
        self._compiled = compiled
        self._emit = emit
        self._fast_path = fast_path
        self._classing = compiled.classing
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._decoder_pending = False

        # The arena under construction (cell 0 is the initial list [⊥]).
        self._node_markers: list[int] = []
        self._node_positions: list[int] = []
        self._node_starts: list[int] = []
        self._node_ends: list[int] = []
        self._cell_nodes: list[int] = [NIL]
        self._cell_nexts: list[int] = [NIL]

        # The live set's record (None once every run is gone) and its
        # members' lists as flattened (start, end) pairs.
        self._record = set_table(compiled).record((compiled.initial,))
        self._slots: tuple[int, ...] = (0, 0)

        self._offset = 0
        self._finished = False
        self._failed = False

        # Settled mappings are always *returned* by feed(); whether they
        # are additionally kept for finish() to replay is the caller's
        # choice — an unbounded tail that consumes feed()'s return value
        # passes retain_settled=False so memory tracks the in-flight
        # state, not the total output.
        self._retain_settled = retain_settled
        self._settled: list[Mapping] = []
        self._settled_count = 0
        self._peak_cells = len(self._cell_nodes)
        self._cells_after_compact = len(self._cell_nodes)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def emit(self) -> str:
        """The output mode (``"on_finish"`` or ``"incremental"``)."""
        return self._emit

    @property
    def position(self) -> int:
        """How many characters have been consumed so far."""
        return self._offset

    @property
    def peak_arena_cells(self) -> int:
        """The largest buffered arena (in cells) observed so far.

        Sampled before every compaction, so it reports the memory that
        actually existed — the number the ``tailing-logs`` bounded-buffer
        property pins against the whole-document arena size.
        """
        return max(self._peak_cells, len(self._cell_nodes))

    def arena_cells(self) -> int:
        """The current buffered arena size in cells."""
        return len(self._cell_nodes)

    def settled_count(self) -> int:
        """How many mappings have been flushed as settled so far."""
        return self._settled_count

    def is_live(self) -> bool:
        """Whether any run (including a flushed settled sink) is still alive."""
        return self._record is not None or bool(self._settled_count)

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #

    def feed(self, chunk: str | bytes | bytearray) -> list[Mapping]:
        """Consume one document chunk.

        Returns the mappings that became settled during this chunk
        (always empty under ``emit="on_finish"``).  ``bytes`` chunks may
        end mid-way through a UTF-8 sequence; the remainder is buffered
        and completed by the next chunk.
        """
        self._check_open("feed")
        if isinstance(chunk, (bytes, bytearray)):
            text = self._decoder.decode(bytes(chunk), False)
            self._decoder_pending = bool(self._decoder.getstate()[0])
        elif isinstance(chunk, str):
            if chunk and self._decoder_pending:
                self._fail(
                    "a str chunk arrived while a partial UTF-8 sequence "
                    "from an earlier bytes chunk is still pending"
                )
            text = chunk
        else:
            raise StreamingError(
                f"chunks must be str or bytes, got {type(chunk).__name__}"
            )
        if not text:
            return []
        step = subset.SUBSET_CAP
        for begin in range(0, len(text), step):
            encoded = self._classing.encode_fresh(text[begin : begin + step])
            if self._record is not None:
                self._advance(encoded.buffer, encoded.length)
                self._renew()
            self._offset += encoded.length
        if self._emit != "incremental":
            return []
        flushed = self._flush_settled()
        self._peak_cells = max(self._peak_cells, len(self._cell_nodes))
        cells = len(self._cell_nodes)
        if cells >= COMPACT_FLOOR_CELLS and cells >= 2 * self._cells_after_compact:
            self._compact()
        return flushed

    def finish(self) -> CompiledResultDag | StreamedResult:
        """Run the final capturing phase and return the result.

        ``emit="on_finish"`` returns the :class:`CompiledResultDag` the
        whole-document arena engine would have built; ``"incremental"``
        returns a :class:`StreamedResult` pairing the already-flushed
        mappings with the residual arena (with ``retain_settled=False``
        the ``settled`` list is empty — those mappings were delivered
        through :meth:`feed` only, see :meth:`settled_count`).
        """
        self._check_open("finish")
        if self._decoder_pending:
            try:
                self._decoder.decode(b"", True)  # raises UnicodeDecodeError
            except UnicodeDecodeError as error:
                self._fail(f"stream ended inside a UTF-8 sequence: {error}")
        self._finished = True

        # The final capturing phase at the stream's end position: one more
        # loop call, on no characters.
        if self._record is not None:
            self._advance(b"", 0, final=True)
        residual = _collect_arena(
            self._compiled, self._offset, self._record, self._slots, self._arena()
        )
        self._record = None
        self._peak_cells = max(self._peak_cells, len(self._cell_nodes))
        if self._emit == "on_finish":
            return residual
        return StreamedResult(self._settled, residual, self._settled_count)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_open(self, operation: str) -> None:
        if self._finished:
            raise StreamingError(f"cannot {operation}: the stream was finished")
        if self._failed:
            raise StreamingError(
                f"cannot {operation}: the stream failed earlier and holds "
                "no consistent state"
            )

    def _fail(self, message: str) -> None:
        """Mark the stream failed; it holds no usable state afterwards."""
        self._record = None
        self._failed = True
        raise StreamingError(message)

    def _arena(self) -> tuple[list[int], ...]:
        """The six arena arrays, in :func:`arena_loop` order."""
        return (
            self._node_markers,
            self._node_positions,
            self._node_starts,
            self._node_ends,
            self._cell_nodes,
            self._cell_nexts,
        )

    def _advance(self, buf, n: int, final: bool = False) -> None:
        """:func:`arena_loop` over one chunk.

        ``pos`` is chunk-local; node positions add ``self._offset``.  All
        loop state (the set record and its slot pairs) is threaded
        through the loop call so the next chunk resumes exactly where
        this one stopped — including mid-sprint; the arena arrays are
        mutated in place.
        """
        self._record, self._slots = arena_loop(
            self._compiled,
            buf,
            n,
            self._offset,
            self._record,
            self._slots,
            *self._arena(),
            self._fast_path,
            final,
        )

    def _renew(self) -> None:
        """Move the stream onto its automaton's next generation, once the
        one it runs holds more than ``SUBSET_CAP`` subsets.

        The arena names marker sets, whose ids every generation shares,
        and no state, so only the live set moves: each member is
        re-interned by its member tuple, and its list goes with it, in
        the order of the new ids.
        """
        old = self._compiled
        new = old.renewed()
        if new is old:
            return
        self._compiled = new
        self._classing = new.classing
        if self._record is None:
            return
        slots = self._slots
        moved = sorted(
            (new.intern_subset(old.subset_members[state]), *slots[2 * index : 2 * index + 2])
            for index, state in enumerate(self._record.members)
        )
        self._record = set_table(new).record(tuple(state for state, _, _ in moved))
        self._slots = tuple(cell for _, start, end in moved for cell in (start, end))

    def _flush_settled(self) -> list[Mapping]:
        """Move settled-sink mappings out of the arena (incremental mode).

        Each settled sink's current list is decoded into mappings — a
        bounded arena walk per mapping, the constant-delay step — and
        its head is cut so :meth:`finish` never re-emits them.  The sink
        leaves the active set; a later run merging into it through a
        reading phase re-activates it with a fresh list.
        """
        flushed: list[Mapping] = []
        settled = self._compiled.settled
        members = self._record.members if self._record is not None else ()
        if not any([settled(state) for state in members]):
            return flushed
        slots = self._slots
        kept = []
        for index, state in enumerate(members):
            pair = slots[2 * index : 2 * index + 2]
            if not settled(state):
                kept.append((state, pair))
                continue
            view = CompiledResultDag(
                self._compiled, self._offset, *self._arena(), [(state, *pair)]
            )
            flushed.extend(view.mappings())
        self._record = (
            set_table(self._compiled).record(tuple(state for state, _ in kept))
            if kept
            else None
        )
        self._slots = tuple(cell for _, pair in kept for cell in pair)
        self._settled_count += len(flushed)
        if self._retain_settled:
            self._settled.extend(flushed)
        return flushed

    def _compact(self) -> None:
        """Rebuild the arena keeping only cells/nodes live runs can reach.

        Roots are the ``(start, end)`` lists of the live set.  Node
        ids are reassigned in ascending old order, preserving the
        children-before-parents invariant that the arena counting loop
        relies on.  Next pointers leaving the kept set are reset to
        ``NIL`` — they belonged to flushed or dead list views that no
        surviving ``(start, end)`` pair can traverse.
        """
        cell_nodes = self._cell_nodes
        cell_nexts = self._cell_nexts
        node_starts = self._node_starts
        node_ends = self._node_ends
        slots = self._slots

        kept_cells: set[int] = set()
        kept_nodes: set[int] = set()
        node_stack: list[int] = []

        def mark_list(start: int, end: int) -> None:
            cell = start
            while cell != NIL:
                if cell not in kept_cells:
                    kept_cells.add(cell)
                node = cell_nodes[cell]
                if node != NIL and node not in kept_nodes:
                    kept_nodes.add(node)
                    node_stack.append(node)
                if cell == end:
                    break
                cell = cell_nexts[cell]

        for index in range(0, len(slots), 2):
            mark_list(slots[index], slots[index + 1])
        while node_stack:
            node = node_stack.pop()
            mark_list(node_starts[node], node_ends[node])

        nodes_sorted = sorted(kept_nodes)
        cells_sorted = sorted(kept_cells)
        node_map = {old: new for new, old in enumerate(nodes_sorted)}
        cell_map = {old: new for new, old in enumerate(cells_sorted)}

        def remap_cell(cell: int) -> int:
            return cell_map.get(cell, NIL) if cell != NIL else NIL

        self._node_markers = [self._node_markers[old] for old in nodes_sorted]
        self._node_positions = [self._node_positions[old] for old in nodes_sorted]
        self._node_starts = [remap_cell(node_starts[old]) for old in nodes_sorted]
        self._node_ends = [remap_cell(node_ends[old]) for old in nodes_sorted]
        new_cell_nodes = []
        new_cell_nexts = []
        for old in cells_sorted:
            node = cell_nodes[old]
            new_cell_nodes.append(node_map[node] if node != NIL else NIL)
            new_cell_nexts.append(remap_cell(cell_nexts[old]))
        self._cell_nodes = new_cell_nodes
        self._cell_nexts = new_cell_nexts

        self._slots = tuple(map(remap_cell, slots))
        self._cells_after_compact = max(1, len(new_cell_nodes))

    def __repr__(self) -> str:
        status = "finished" if self._finished else f"at {self._offset}"
        return (
            f"StreamingEvaluator(emit={self._emit!r}, {status}, "
            f"cells={len(self._cell_nodes)})"
        )


def evaluate_streaming(
    compiled: CompiledSubsetEVA,
    document: object,
    *,
    chunk_size: int = 65536,
    emit: str = "on_finish",
    fast_path: bool = True,
) -> CompiledResultDag | StreamedResult:
    """Evaluate *document* by feeding it through a :class:`StreamingEvaluator`.

    The convenience driver used by ``run_batch(streaming=True)``: the
    document is consumed in *chunk_size*-character slices, so no
    whole-document class-id buffer is ever materialized (peak memory is
    one encoded chunk plus the live arena instead of ``O(|d|)``).
    """
    if chunk_size < 1:
        raise EvaluationError(f"chunk_size must be positive, got {chunk_size}")
    evaluator = StreamingEvaluator(compiled, emit=emit, fast_path=fast_path)
    chunks = getattr(document, "iter_chunks", None)
    if chunks is not None:
        for chunk in chunks(chunk_size):
            evaluator.feed(chunk)
    else:
        from repro.core.documents import as_text

        text = as_text(document)
        for begin in range(0, len(text), chunk_size):
            evaluator.feed(text[begin : begin + chunk_size])
    return evaluator.finish()
