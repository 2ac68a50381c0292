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
* the per-position loop is the arena kernel of
  :mod:`repro.runtime.kernel` in its *resumable* flavour (the
  ``chunking="resumable"`` spec point) — the same generated phases as
  :func:`~repro.runtime.engine.evaluate_compiled_arena`, quiescent-run
  sprint included, but with the live state (active set, ``(start, end)``
  slot pairs, the ``quiet`` flag and the arena arrays) passed in and
  handed back across chunk boundaries: a sprint interrupted by a chunk
  boundary resumes at C speed in the next chunk;
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
    sink** — a final state with no variable transitions that self-loops
    on every class of the compiled alphabet.  Runs parked there can never
    gain markers, never leave the state and never die on in-alphabet
    input, so their mappings are in the output of *every* continuation of
    the stream — emitting them early is exact, and the constant-delay
    guarantee carries over (each settled mapping is decoded by the same
    bounded arena walk Algorithm 2 performs).  Flushed list heads are cut
    from the live structure and the arena is compacted to the cells still
    reachable from live runs, so the buffered arena stays bounded by the
    in-flight state instead of growing with the whole output (the
    ``tailing-logs`` property test pins ``peak_arena_cells`` strictly
    below the whole-document arena).  One guard keeps early emission
    exact: once a mapping has been delivered, a character outside the
    compiled alphabet raises a :class:`StreamingError` — it would kill
    even the settled sinks, retracting what was already handed out.
    Before the first delivery the engines' kill-the-runs semantics apply
    unchanged (the whole-document output is empty either way).  Streams
    that may carry arbitrary bytes should declare a larger alphabet or
    use ``emit="on_finish"``.

The evaluator works on the dense tables of a
:class:`~repro.runtime.compiled.CompiledEVA` (the planner's streaming
mode resolves every engine request to ``"compiled"``: a lazily
determinized runtime could discover new rows mid-stream, which the
settled-sink analysis done at construction time could not see).
"""

from __future__ import annotations

import codecs

from repro.core.errors import EvaluationError, StreamingError
from repro.core.mappings import Mapping
from repro.runtime.compiled import CompiledEVA
from repro.runtime.dag import NIL, CompiledResultDag
from repro.runtime.engine import EvaluationScratch, _checked_scratch
from repro.runtime.kernel import KernelSpec, build_final_capture, build_kernel

__all__ = [
    "EMIT_MODES",
    "StreamedResult",
    "StreamingEvaluator",
    "evaluate_streaming",
    "settled_sinks",
]

EMIT_MODES = ("on_finish", "incremental")

#: Compact the arena only once it has doubled past this floor, so tiny
#: streams never pay the rebuild and long streams amortize it to O(1)
#: per retained cell.
COMPACT_FLOOR_CELLS = 64

# The chunk loop: the arena kernel in its resumable flavour — loop state
# (active set, slot pairs, quiet flag, arena arrays) is passed in and
# handed back instead of initialized/finalized per call — and the
# stand-alone final capturing phase run once at finish().
_advance_kernel = build_kernel(KernelSpec(capture="arena", chunking="resumable"))
_final_capture = build_final_capture()


def settled_sinks(compiled: CompiledEVA) -> frozenset[int]:
    """The state ids whose runs are settled the moment they arrive.

    A state qualifies when it is final, has no extended variable
    transition (its list is never snapshotted into new DAG nodes) and
    self-loops on every non-foreign class (no in-alphabet character can
    move or kill the run).  Mappings parked in such a state are in the
    output of every continuation of the stream over the compiled
    alphabet — the exactness argument behind ``emit="incremental"``.
    """
    sinks = []
    for state in range(compiled.num_states):
        if not (compiled.is_final[state] and compiled.silent[state]):
            continue
        row = compiled.class_table[state]
        # The trailing column is the all-dead foreign class; a sink only
        # needs to survive the declared alphabet.
        if all(target == state for target in row[:-1]):
            sinks.append(state)
    return frozenset(sinks)


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
    between byte chunks), then :meth:`finish` it exactly once.  Pass a
    reused :class:`~repro.runtime.engine.EvaluationScratch` when
    streaming many documents through the same automaton (the batch
    engine does); the slot arrays are returned cleared.
    """

    def __init__(
        self,
        compiled: CompiledEVA,
        *,
        emit: str = "on_finish",
        fast_path: bool = True,
        scratch: EvaluationScratch | None = None,
        retain_settled: bool = True,
    ) -> None:
        if not isinstance(compiled, CompiledEVA):
            raise StreamingError(
                "streaming needs the dense tables of a CompiledEVA "
                f"(got {type(compiled).__name__}); lazily determinized "
                "runtimes may discover rows mid-stream"
            )
        if emit not in EMIT_MODES:
            raise StreamingError(
                f"unknown emit mode {emit!r}; expected one of {EMIT_MODES}"
            )
        self._compiled = compiled
        self._emit = emit
        self._fast_path = fast_path
        self._scratch = _checked_scratch(compiled, scratch)
        self._classing = compiled.classing
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._decoder_pending = False

        # Foreign-class probes for the incremental mode's alphabet guard.
        foreign = self._classing.foreign_class
        self._foreign_byte = foreign if foreign <= 0xFF else None
        self._foreign_id = foreign

        # The arena under construction (cell 0 is the initial list [⊥]).
        self._node_markers: list[int] = []
        self._node_positions: list[int] = []
        self._node_starts: list[int] = []
        self._node_ends: list[int] = []
        self._cell_nodes: list[int] = [NIL]
        self._cell_nexts: list[int] = [NIL]

        self._cur_start = self._scratch.cur_start
        self._cur_end = self._scratch.cur_end
        self._pend_start = self._scratch.pend_start
        self._pend_end = self._scratch.pend_end

        initial = compiled.initial
        self._cur_start[initial] = 0
        self._cur_end[initial] = 0
        self._active: list[int] = [initial]
        self._quiet = compiled.silent[initial]

        self._offset = 0
        self._finished = False
        self._failed = False

        self._sinks = settled_sinks(compiled) if emit == "incremental" else frozenset()
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
        return bool(self._active) or bool(self._settled_count)

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
        encoded = self._classing.encode_fresh(text)
        if self._settled_count:
            self._guard_alphabet(encoded.buffer, len(text))
        if self._active:
            self._advance(encoded.buffer, encoded.length)
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
        through :meth:`feed` only, see :meth:`settled_count`).  The
        borrowed scratch arrays are cleared for the next document.
        """
        self._check_open("finish")
        if self._decoder_pending:
            try:
                self._decoder.decode(b"", True)  # raises UnicodeDecodeError
            except UnicodeDecodeError as error:
                self._fail(f"stream ended inside a UTF-8 sequence: {error}")
        self._finished = True

        compiled = self._compiled
        cur_start = self._cur_start
        cur_end = self._cur_end
        # The final capturing phase at the stream's end position — the
        # same generated arena-capture fragment every whole-buffer kernel
        # inlines, run stand-alone because a resumable kernel never
        # finalizes (mutates the active list and arena in place).
        _final_capture(
            compiled,
            cur_start,
            cur_end,
            self._active,
            self._quiet,
            self._node_markers,
            self._node_positions,
            self._node_starts,
            self._node_ends,
            self._cell_nodes,
            self._cell_nexts,
            self._offset,
        )
        is_final = compiled.is_final
        final_entries = [
            (state, cur_start[state], cur_end[state])
            for state in self._active
            if is_final[state] and cur_start[state] != NIL
        ]
        self._peak_cells = max(self._peak_cells, len(self._cell_nodes))
        self._release_scratch()

        residual = CompiledResultDag(
            compiled,
            self._offset,
            self._node_markers,
            self._node_positions,
            self._node_starts,
            self._node_ends,
            self._cell_nodes,
            self._cell_nexts,
            final_entries,
        )
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

    def _release_scratch(self) -> None:
        """Deactivate every run and hand the slot arrays back clean.

        The one place the scratch-handoff invariant lives: both the
        normal :meth:`finish` path and the failure path go through it,
        so a borrowed :class:`EvaluationScratch` is always safe to reuse
        for the next document.
        """
        for state in self._active:
            self._cur_start[state] = NIL
        self._active = []
        self._scratch.cur_start = self._cur_start
        self._scratch.cur_end = self._cur_end
        self._scratch.pend_start = self._pend_start
        self._scratch.pend_end = self._pend_end

    def _fail(self, message: str) -> None:
        self._release_scratch()
        self._failed = True
        raise StreamingError(message)

    def _guard_alphabet(self, buf, length: int) -> None:
        """Reject a foreign character once mappings have been delivered.

        A foreign character kills every run — including the settled
        sinks whose mappings were already handed to the caller, which
        could never be retracted.  Until the first delivery the guard is
        off: a foreign character then simply kills every run, exactly
        the compiled engines' whole-document semantics (the total output
        is empty either way).
        """
        if isinstance(buf, bytes):
            if self._foreign_byte is None:
                return
            position = buf.find(self._foreign_byte)
        else:
            position = -1
            for index in range(length):
                if buf[index] == self._foreign_id:
                    position = index
                    break
        if position >= 0:
            self._fail(
                "character outside the declared alphabet at position "
                f"{self._offset + position}; incremental emission cannot "
                "retract already-delivered mappings — declare a larger "
                "alphabet or use emit='on_finish'"
            )

    def _advance(self, buf, n: int) -> None:
        """The resumable arena kernel over one chunk.

        ``pos`` is chunk-local; node positions add ``self._offset``.  All
        loop state (active set, slot pairs, ``quiet``) is threaded
        through the kernel call so the next chunk resumes exactly where
        this one stopped — including mid-sprint; the arena arrays are
        mutated in place.
        """
        (
            self._cur_start,
            self._cur_end,
            self._pend_start,
            self._pend_end,
            self._active,
            self._quiet,
        ) = _advance_kernel(
            self._compiled,
            buf,
            n,
            self._offset,
            self._cur_start,
            self._cur_end,
            self._pend_start,
            self._pend_end,
            self._active,
            self._quiet,
            self._node_markers,
            self._node_positions,
            self._node_starts,
            self._node_ends,
            self._cell_nodes,
            self._cell_nexts,
            self._fast_path,
        )

    def _flush_settled(self) -> list[Mapping]:
        """Move settled-sink mappings out of the arena (incremental mode).

        Each settled sink's current list is decoded into mappings — a
        bounded arena walk per mapping, the constant-delay step — and
        its head is cut so :meth:`finish` never re-emits them.  The sink
        leaves the active set; a later run merging into it through a
        reading phase re-activates it with a fresh list.
        """
        flushed: list[Mapping] = []
        cur_start = self._cur_start
        sinks = self._sinks
        hit = [state for state in self._active if state in sinks]
        if not hit:
            return flushed
        for state in hit:
            view = CompiledResultDag(
                self._compiled,
                self._offset,
                self._node_markers,
                self._node_positions,
                self._node_starts,
                self._node_ends,
                self._cell_nodes,
                self._cell_nexts,
                [(state, cur_start[state], self._cur_end[state])],
            )
            flushed.extend(view.mappings())
            cur_start[state] = NIL
        self._active = [state for state in self._active if state not in sinks]
        self._settled_count += len(flushed)
        if self._retain_settled:
            self._settled.extend(flushed)
        return flushed

    def _compact(self) -> None:
        """Rebuild the arena keeping only cells/nodes live runs can reach.

        Roots are the ``(start, end)`` lists of the active states.  Node
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
        cur_start = self._cur_start
        cur_end = self._cur_end

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

        for state in self._active:
            mark_list(cur_start[state], cur_end[state])
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

        for state in self._active:
            cur_start[state] = remap_cell(cur_start[state])
            cur_end[state] = remap_cell(cur_end[state])
        self._cells_after_compact = max(1, len(new_cell_nodes))

    def __repr__(self) -> str:
        status = "finished" if self._finished else f"at {self._offset}"
        return (
            f"StreamingEvaluator(emit={self._emit!r}, {status}, "
            f"cells={len(self._cell_nodes)})"
        )


def evaluate_streaming(
    compiled: CompiledEVA,
    document: object,
    *,
    chunk_size: int = 65536,
    emit: str = "on_finish",
    scratch: EvaluationScratch | None = None,
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
    evaluator = StreamingEvaluator(
        compiled, emit=emit, scratch=scratch, fast_path=fast_path
    )
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
