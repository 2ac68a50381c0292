"""Shard-parallel evaluation of one document via transition summaries.

Every other engine in the repository walks a document left to right on a
single core; :func:`run_batch` only parallelizes *across* documents.  This
module parallelizes *within* one document using the classic
parallel-pattern-matching decomposition:

1. **Shard** the encoded class-id buffer into near-equal slices
   (:func:`plan_shards`).  The buffer stores one class id per *codepoint*
   (:mod:`repro.runtime.encoding`), so every slice boundary is a codepoint
   boundary by construction — a multi-byte character can never be split.

2. **Summarize** each shard with a cheap capture-free pass
   (:func:`shard_summary`): for every possible entry state, the frontier
   of live states at the shard's end.  Frontier evolution is per-state
   (reading moves each state through its letter transition, capturing adds
   each state's variable targets), so the frontier reached from a *set* of
   entry states is exactly the union of the frontiers reached from each
   state alone — which is why per-entry-state summaries compose
   (:func:`compose_summaries`) and can be computed for all shards
   concurrently, before anyone knows which entry states are real.

3. **Stitch** the summaries left to right: the first shard is entered at
   the compiled initial state; each later shard is entered at the union
   frontier its predecessor's summary maps the previous entry set to.  An
   empty entry set means every run died earlier — the remaining shards are
   provably unreachable and are never replayed.

4. **Replay** the reachable shards with full capture semantics
   (:func:`replay_shard`), each into a private arena *fragment* whose
   references to list cells of earlier shards are negative placeholders.
   Because the engines keep their live-state list in canonical
   (sorted-by-id) order, a shard's fragment is a pure function of its
   entry-state set and its slice of the buffer — so fragments concatenate
   (:func:`stitch_fragments`), placeholders relocate to the global cell
   ids, and the result is **bit-identical** to what
   :func:`~repro.runtime.engine.evaluate_compiled_arena` builds in one
   pass (the differential harness pins this arena-for-arena).

The summary pass reuses the quiescent-run sprint of the compiled engines
and memoizes ``(state, position) → exit frontier`` checkpoints, so on
sparse-match workloads the per-shard cost of summarizing *all* entry
states converges to about one extra scan: most entry states die or merge
into the same trajectory within a few events and then hit the memo.

Counting (Algorithm 3) shards without any replay at all: partial-run
counts evolve linearly (capturing adds a state's count to its targets,
reading moves counts), so a per-shard, per-entry-state **count vector**
(:func:`count_sharded`) composes by matrix-style accumulation and the
stitched product is the exact output count.

Worker orchestration ships each worker only its *slice* of the class-id
buffer (never the document, whose encoding cache would be dropped at the
pickling boundary and trigger a full re-encode per worker) plus the
compiled automaton once per pool via the initializer.  Every pool is a
:class:`~repro.runtime.resilience.SupervisedPool` — the one supervised
executor of the repository: :func:`start_shard_pool` builds a persistent
one that amortizes process start-up across evaluations, and the batch
engine passes its own, so sharded runs follow the batch escalation ladder.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.core.errors import EvaluationError, NotDeterministicError
from repro.runtime import resilience
from repro.runtime.compiled import CompiledEVA
from repro.runtime.dag import NIL, CompiledResultDag
from repro.runtime.kernel import (
    SUMMARY_MEMO_CAP,
    KernelSpec,
    _entry_start_ref,
    _entry_end_ref,
    build_kernel,
)
from repro.runtime.runlength import (
    count_vectors_runlength,
    resolve_kernel,
    summary_runlength,
)

__all__ = [
    "DEFAULT_SHARD_MIN_CHARS",
    "SHARD_METRICS",
    "ShardFragment",
    "ShardMetrics",
    "apply_summary",
    "compose_summaries",
    "count_sharded",
    "evaluate_sharded",
    "plan_shards",
    "replay_shard",
    "shard_inline_setup",
    "shard_metrics_snapshot",
    "shard_summary",
    "start_shard_pool",
    "stitch_fragments",
]

#: Below this many characters a document is not worth sharding: the serial
#: arena engine finishes in well under the cost of task pickling (let
#: alone a process fork), so the facade and the batch engine fall back to
#: the single-core path.  Callers that know better (benchmarks, tests)
#: bypass the threshold by calling :func:`evaluate_sharded` directly.
DEFAULT_SHARD_MIN_CHARS = 32768

# SUMMARY_MEMO_CAP (the cap on the per-shard ``(state, position) →
# frontier`` memo of the summary pass) moved to the kernel module with
# the kernel-spec refactor and is re-exported above for back-compat.


# ---------------------------------------------------------------------- #
# Shard metrics (consumed by the server's /metrics endpoint)
# ---------------------------------------------------------------------- #


class ShardMetrics:
    """Process-wide counters for shard-parallel evaluation.

    Lock-guarded like :class:`~repro.server.metrics.ServerMetrics`: the
    counters are written from evaluation call sites on any thread and
    snapshotted by the server's ``/metrics`` endpoint.  Times are summed
    *task* durations (as measured inside each summary / replay task), so
    the summary-vs-replay split is meaningful regardless of how many
    cores the tasks actually ran on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._documents_sharded = 0
        self._shards_planned = 0
        self._shards_evaluated = 0
        self._shards_skipped_unreachable = 0
        self._summary_seconds = 0.0
        self._replay_seconds = 0.0

    def record(
        self,
        *,
        planned: int,
        evaluated: int,
        skipped: int,
        summary_seconds: float,
        replay_seconds: float,
    ) -> None:
        with self._lock:
            self._documents_sharded += 1
            self._shards_planned += planned
            self._shards_evaluated += evaluated
            self._shards_skipped_unreachable += skipped
            self._summary_seconds += summary_seconds
            self._replay_seconds += replay_seconds

    def reset(self) -> None:
        with self._lock:
            self._documents_sharded = 0
            self._shards_planned = 0
            self._shards_evaluated = 0
            self._shards_skipped_unreachable = 0
            self._summary_seconds = 0.0
            self._replay_seconds = 0.0

    def snapshot(self) -> dict[str, int | float]:
        """The JSON-ready counter block exposed under ``/metrics``."""
        with self._lock:
            return {
                "documents_sharded": self._documents_sharded,
                "shards_planned": self._shards_planned,
                "shards_evaluated": self._shards_evaluated,
                "shards_skipped_unreachable": self._shards_skipped_unreachable,
                "summary_seconds": round(self._summary_seconds, 6),
                "replay_seconds": round(self._replay_seconds, 6),
            }


#: The process-wide metrics instance every sharded evaluation records to.
SHARD_METRICS = ShardMetrics()


def shard_metrics_snapshot() -> dict[str, int | float]:
    """The process-wide shard counters (the server's ``/metrics`` block)."""
    return SHARD_METRICS.snapshot()


# ---------------------------------------------------------------------- #
# Shard planning
# ---------------------------------------------------------------------- #


def plan_shards(length: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, length)`` into up to *shards* near-equal slices.

    Returns ``(begin, end)`` pairs covering the range without gaps.  The
    class-id buffer holds one id per codepoint, so any index is a valid
    (UTF-8-safe) split point; asking for more shards than characters
    degrades to one-character shards, and an empty document is one empty
    shard (the replay of which is exactly the empty-document arena).
    """
    if shards < 1:
        raise EvaluationError(f"shard count must be positive, got {shards}")
    if length <= 0:
        return [(0, 0)]
    shards = min(shards, length)
    base, extra = divmod(length, shards)
    bounds = []
    begin = 0
    for index in range(shards):
        end = begin + base + (1 if index < extra else 0)
        bounds.append((begin, end))
        begin = end
    return bounds


# ---------------------------------------------------------------------- #
# The capture-free summary pass
# ---------------------------------------------------------------------- #


# The frontier at position ``n`` of the run set entered at ``entry`` —
# the state-set shadow of the engines' loop (the ``capture="frontier"``
# kernel spec): capturing adds each live state's variable targets,
# reading moves every state through its letter transition and drops the
# dead.  No arena, no pairs, no counts — and the same quiescent sprints,
# so a shard of sparse input costs one C-level scan.  Whenever the set
# collapses to a single state, ``(state, position)`` fully determines
# the rest of the run; the ``memo`` argument caches those checkpoints
# across entry states (it converges quickly: most entry states die or
# merge into one surviving trajectory).  Signature:
# ``_frontier_run(compiled, buf, n, entry, memo, fast_path)``.
_frontier_run = build_kernel(KernelSpec(capture="frontier", entry="states"))


def shard_summary(
    compiled: CompiledEVA,
    buf,
    n: int,
    *,
    entry_states=None,
    fast_path: bool = True,
) -> dict[int, tuple[int, ...]]:
    """Map each entry state to its exit frontier over ``buf[0:n]``.

    *entry_states* defaults to every state of the automaton — the summary
    of a shard must be computed before anyone knows which entry states
    the stitch will select.  The returned frontiers are sorted tuples of
    state ids; a dead entry maps to the empty tuple.
    """
    if entry_states is None:
        entry_states = range(compiled.num_states)
    memo: dict = {}
    return {
        entry: _frontier_run(compiled, buf, n, entry, memo, fast_path)
        for entry in entry_states
    }


def apply_summary(
    summary: dict[int, tuple[int, ...]], entries
) -> tuple[int, ...]:
    """The exit frontier of a shard entered at the state set *entries*."""
    out: set[int] = set()
    for state in entries:
        out.update(summary[state])
    return tuple(sorted(out))


def compose_summaries(
    first: dict[int, tuple[int, ...]], second: dict[int, tuple[int, ...]]
) -> dict[int, tuple[int, ...]]:
    """The summary of two adjacent shards taken as one.

    Frontier evolution is a union-homomorphism over state sets, so
    composition is associative — ``compose(S(a), S(b)) == S(a + b)`` for
    adjacent slices ``a`` and ``b`` (pinned by the property suite).  The
    *second* summary must cover every state the *first* can exit into
    (summaries over all states, the default, always do).
    """
    return {
        entry: apply_summary(second, frontier) for entry, frontier in first.items()
    }


# ---------------------------------------------------------------------- #
# Replay: full capture semantics into a relocatable fragment
# ---------------------------------------------------------------------- #


# _entry_start_ref / _entry_end_ref (the negative placeholder encoding
# for entry lists living in earlier shards) moved to the kernel module —
# the replay kernel allocates them — and are re-exported above.

# The arena kernel entered at a caller-provided state set (the
# ``entry="states"`` spec point): relocatable splices via deferred
# fixups, the final capturing phase gated on ``is_last``.
_replay_kernel = build_kernel(KernelSpec(capture="arena", entry="states"))

# Algorithm 3 entered at one caller-provided state (count vectors).
_count_entry_kernel = build_kernel(KernelSpec(capture="count", entry="states"))


class ShardFragment:
    """One shard's arena fragment, in relocatable (picklable) form.

    Cell references are either local ids (``>= 0``), ``NIL``, or entry
    placeholders (``<= -2``) standing for the ``(start, end)`` pair of
    the *j*-th entry state's list in the previous shard — see
    :func:`_entry_start_ref`.  ``fixups`` are splices whose target end
    cell lives in an earlier shard: they are applied (and checked for
    the single-assignment discipline) during stitching.  Node positions
    are absolute document positions already.
    """

    __slots__ = (
        "entries",
        "node_markers",
        "node_positions",
        "node_starts",
        "node_ends",
        "cell_nodes",
        "cell_nexts",
        "fixups",
        "exit_states",
        "exit_pairs",
        "final_entries",
    )

    def __init__(
        self,
        entries,
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
        fixups,
        exit_states,
        exit_pairs,
        final_entries,
    ) -> None:
        self.entries = entries
        self.node_markers = node_markers
        self.node_positions = node_positions
        self.node_starts = node_starts
        self.node_ends = node_ends
        self.cell_nodes = cell_nodes
        self.cell_nexts = cell_nexts
        self.fixups = fixups
        self.exit_states = exit_states
        self.exit_pairs = exit_pairs
        self.final_entries = final_entries

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state) -> None:
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)

    def __repr__(self) -> str:
        return (
            f"ShardFragment(entries={self.entries}, nodes={len(self.node_markers)}, "
            f"cells={len(self.cell_nodes)}, exit={self.exit_states})"
        )


def replay_shard(
    compiled: CompiledEVA,
    buf,
    n: int,
    base: int,
    entries,
    *,
    is_first: bool,
    is_last: bool,
    fast_path: bool = True,
) -> ShardFragment:
    """Evaluate one shard with full capture semantics.

    The arena kernel in its ``entry="states"`` flavour: the same
    generated loop as the one-pass engine, started at the canonical
    (sorted) entry-state list *entries* instead of the initial state, over the
    shard's buffer slice (*base* is the shard's absolute start position,
    added to every node position).  The first shard allocates cell 0
    (the initial list ``[⊥]``) and must be entered at the initial state;
    later shards reference their entry lists through placeholders.  Only
    the last shard runs the final capturing phase and collects
    ``final_entries`` — an interior shard ends after reading its last
    character, because the phase at the boundary position belongs to its
    successor.

    Canonical live order is what makes this exact: the sequential engine
    arrives at ``base`` with its active list sorted, so replaying from
    ``sorted(entries)`` visits states, allocates nodes/cells and splices
    lists in the same order the one-pass engine does.
    """
    if is_first and tuple(entries) != (compiled.initial,):
        raise EvaluationError(
            "the first shard is entered at the compiled initial state, "
            f"got entry set {tuple(entries)!r}"
        )
    (
        active,
        cur_start,
        cur_end,
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
        fixups,
        final_entries,
    ) = _replay_kernel(compiled, buf, n, base, entries, is_first, is_last, fast_path)

    exit_states = tuple(active)
    exit_pairs = [(cur_start[state], cur_end[state]) for state in active]
    return ShardFragment(
        tuple(entries),
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
        fixups,
        exit_states,
        exit_pairs,
        final_entries,
    )


def stitch_fragments(
    compiled: CompiledEVA, document_length: int, fragments: list[ShardFragment]
) -> CompiledResultDag:
    """Concatenate shard fragments into one :class:`CompiledResultDag`.

    Fragments arrive in shard order (the reachable prefix).  Cells and
    nodes keep their relative order, so the concatenation allocates ids
    in the same chronological order the one-pass engine does; entry
    placeholders resolve to the previous fragment's (already global)
    exit pair for that entry state, and deferred splice fixups are
    applied under the same single-assignment check the engines enforce.
    """
    node_markers: list[int] = []
    node_positions: list[int] = []
    node_starts: list[int] = []
    node_ends: list[int] = []
    cell_nodes: list[int] = []
    cell_nexts: list[int] = []
    final_entries: list[tuple[int, int, int]] = []
    exit_pairs: list[tuple[int, int]] = []
    exit_states: tuple[int, ...] = ()

    for index, fragment in enumerate(fragments):
        if index == 0:
            if fragment.entries != (compiled.initial,):
                raise EvaluationError(
                    "the first fragment must be entered at the initial state"
                )
        elif fragment.entries != exit_states:
            raise EvaluationError(
                f"fragment {index} was replayed for entry set "
                f"{fragment.entries!r} but its predecessor exits at "
                f"{exit_states!r}"
            )
        cell_offset = len(cell_nodes)
        node_offset = len(node_markers)
        entry_pairs = exit_pairs

        def relocate(ref: int) -> int:
            if ref >= 0:
                return ref + cell_offset
            if ref == NIL:
                return NIL
            slot = -ref - 2
            pair = entry_pairs[slot >> 1]
            return pair[slot & 1]

        node_markers.extend(fragment.node_markers)
        node_positions.extend(fragment.node_positions)
        node_starts.extend(relocate(ref) for ref in fragment.node_starts)
        node_ends.extend(relocate(ref) for ref in fragment.node_ends)
        cell_nodes.extend(
            node + node_offset if node != NIL else NIL
            for node in fragment.cell_nodes
        )
        cell_nexts.extend(relocate(ref) for ref in fragment.cell_nexts)
        for end_ref, start_ref in fragment.fixups.items():
            end_cell = relocate(end_ref)
            if cell_nexts[end_cell] != NIL:
                raise NotDeterministicError(
                    "arena append would overwrite a next pointer; the "
                    "compiled automaton is not deterministic"
                )
            cell_nexts[end_cell] = relocate(start_ref)
        exit_states = fragment.exit_states
        exit_pairs = [
            (relocate(start), relocate(end)) for start, end in fragment.exit_pairs
        ]
        final_entries.extend(
            (state, relocate(start), relocate(end))
            for state, start, end in fragment.final_entries
        )

    return CompiledResultDag(
        compiled,
        document_length,
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
        final_entries,
    )


# ---------------------------------------------------------------------- #
# Count vectors (Algorithm 3 shards without a replay pass)
# ---------------------------------------------------------------------- #


def _count_run(
    compiled: CompiledEVA,
    buf,
    n: int,
    entry: int,
    include_final: bool,
) -> dict[int, int]:
    """The exit count vector of one partial run entered at *entry*.

    Seeds ``counts[entry] = 1`` and runs Algorithm 3's loop over the
    shard; the result maps each exit state to the number of partial runs
    parked there.  Count evolution is linear, so the vector for an entry
    carrying count ``c`` is this vector scaled by ``c`` — the stitch in
    :func:`count_sharded` exploits exactly that superposition.
    """
    active, counts = _count_entry_kernel(
        compiled, buf, n, entry, include_final, True  # fast path on
    )
    return {state: counts[state] for state in active if counts[state]}


# ---------------------------------------------------------------------- #
# Worker-process plumbing (module level so it pickles under any context)
# ---------------------------------------------------------------------- #

_WORKER_COMPILED: CompiledEVA | None = None


def _init_shard_worker(
    compiled: CompiledEVA,
    faults: "resilience.FaultPlan | None" = None,
) -> None:
    global _WORKER_COMPILED
    _WORKER_COMPILED = compiled
    if faults is not None:
        resilience.install_fault_plan(faults)


def _worker_automaton() -> CompiledEVA:
    compiled = _WORKER_COMPILED
    assert compiled is not None, "shard worker pool used before initialization"
    # Every shard task fetches the automaton exactly once, so this is
    # the one choke point the fault-injection harness needs.
    if resilience._ACTIVE_PLAN is not None:
        resilience.maybe_fault("shard-task")
    return compiled


def _summary_task(payload: tuple) -> tuple:
    index, buf, n = payload
    started = perf_counter()
    summary = shard_summary(_worker_automaton(), buf, n)
    return index, summary, perf_counter() - started


def _summary_task_rl(payload: tuple) -> tuple:
    """The summary pass over the shard's run-length encoding.

    Same payload and result shape as :func:`_summary_task`, but each run
    of ``k`` identical classes costs ``O(log k)`` Boolean row
    applications (:func:`repro.runtime.runlength.summary_runlength`)
    instead of ``k`` characters — the per-run matrices compose with the
    per-shard summary stitch unchanged, because both express the same
    per-position state-set transition.
    """
    index, buf, n = payload
    started = perf_counter()
    summary = summary_runlength(_worker_automaton(), buf, n)
    return index, summary, perf_counter() - started


def _replay_task(payload: tuple) -> tuple:
    index, buf, n, base, entries, is_first, is_last = payload
    started = perf_counter()
    fragment = replay_shard(
        _worker_automaton(),
        buf,
        n,
        base,
        entries,
        is_first=is_first,
        is_last=is_last,
    )
    return index, fragment, perf_counter() - started


def _count_task(payload: tuple) -> tuple:
    index, buf, n, entries, include_final = payload
    started = perf_counter()
    compiled = _worker_automaton()
    vectors = {
        entry: _count_run(compiled, buf, n, entry, include_final)
        for entry in entries
    }
    return index, vectors, perf_counter() - started


def _count_task_rl(payload: tuple) -> tuple:
    """Per-entry count vectors via the run-product algebra.

    Same payload and result shape as :func:`_count_task`; the stitch in
    :func:`count_sharded` consumes both interchangeably (the property
    suite pins the vectors equal entry for entry).
    """
    index, buf, n, entries, include_final = payload
    started = perf_counter()
    vectors = count_vectors_runlength(
        _worker_automaton(), buf[:n], entries, include_final
    )
    return index, vectors, perf_counter() - started


def shard_inline_setup(compiled: CompiledEVA):
    """Prime this process's shard-worker globals; return the teardown.

    The inline path runs the very module-level task functions the workers
    run, so pooled and inline results cannot drift apart.  It clears the
    fault plan for its duration — the inline path is the exactness
    backstop — and the teardown restores the globals and the plan.
    """
    global _WORKER_COMPILED
    saved = (_WORKER_COMPILED, resilience._ACTIVE_PLAN)
    _init_shard_worker(compiled)
    resilience.clear_fault_plan()

    def teardown() -> None:
        global _WORKER_COMPILED
        _WORKER_COMPILED, plan = saved
        resilience.install_fault_plan(plan)

    return teardown


def start_shard_pool(
    compiled: CompiledEVA,
    workers: int,
    *,
    policy: "resilience.ResiliencePolicy | None" = None,
) -> "resilience.SupervisedPool":
    """A supervised worker pool bound to *compiled*, for shard tasks.

    The automaton crosses the process boundary once (via the pool
    initializer); every task afterwards ships only its shard's slice of
    the class-id buffer.  Keep one pool alive across evaluations — the
    facade and the benchmarks do — so process start-up is paid once, not
    per document.  *policy* drives the escalation ladder and its
    ``faults`` plan is installed in every worker.
    """
    if policy is None:
        policy = resilience.DEFAULT_POLICY
    return resilience.SupervisedPool(
        workers,
        initializer=_init_shard_worker,
        initargs=(compiled, policy.faults),
        inline_setup=lambda: shard_inline_setup(compiled),
        policy=policy,
    )


# ---------------------------------------------------------------------- #
# Orchestration
# ---------------------------------------------------------------------- #


def _run_tasks(pool, compiled: CompiledEVA, calls: list) -> list:
    """Run ``(task, payload)`` calls on *pool*, or inline when it is None.

    A pool is a :class:`~repro.runtime.resilience.SupervisedPool`: its
    ``collect`` walks the escalation ladder (retry → rebuild once →
    demote inline), and shard tasks are pure functions of their payload,
    so the results are exact whichever rung produced them.
    """
    if pool is None:
        teardown = shard_inline_setup(compiled)
        try:
            return [task(payload) for task, payload in calls]
        finally:
            teardown()
    handles = [pool.submit(task, payload) for task, payload in calls]
    return [pool.collect(handle) for handle in handles]


def evaluate_sharded(
    compiled: CompiledEVA,
    document: object,
    *,
    workers: int | None = None,
    shards: int | None = None,
    pool=None,
    metrics: ShardMetrics | None = None,
    kernel: str = "scalar",
) -> CompiledResultDag:
    """Evaluate *document* shard-parallel; the arena is bit-identical to
    :func:`~repro.runtime.engine.evaluate_compiled_arena`'s.

    ``kernel`` selects how interior shards are *summarized*: the scalar
    frontier walk or the run-length Boolean powers (``"auto"`` resolves
    from the document's measured run statistics).  Replay always runs
    the scalar arena loop — every arena in the repository does.

    Pass a :class:`~repro.runtime.resilience.SupervisedPool` (a
    persistent one from :func:`start_shard_pool`, or the batch engine's)
    to fan shards out to worker processes; with ``pool=None`` the same
    decomposition runs inline in this process (the differential tests
    exercise exactly that path, so pooled results can never diverge from
    inline ones).  *shards* defaults to the worker count.

    Scheduling: round one replays shard 0 (its entry state is known — the
    initial state) concurrently with the summary passes of the interior
    shards; the stitch then resolves every shard's entry set, and round
    two replays the reachable remainder concurrently.  Shards the stitch
    proves unreachable (every run died earlier) are never replayed and
    are counted in the metrics.
    """
    if pool is not None and workers is None:
        workers = pool.workers
    if workers is None:
        workers = 1
    if workers < 1:
        raise EvaluationError(f"worker count must be positive, got {workers}")
    if shards is None:
        shards = max(workers, 1)

    encoded = compiled.encode(document)
    buf = encoded.buffer
    n = encoded.length
    bounds = plan_shards(n, shards)
    total = len(bounds)
    initial = compiled.initial
    summary_task = (
        _summary_task_rl
        if resolve_kernel(kernel, encoded) == "runlength"
        else _summary_task
    )

    summary_seconds = 0.0
    replay_seconds = 0.0
    fragments: dict[int, ShardFragment] = {}
    summaries: dict[int, dict[int, tuple[int, ...]]] = {}

    # Round one: replay the first shard (entry known), summarize the
    # interior.  The last shard's summary is never needed — nothing is
    # entered after it — and the first shard's replay *is* its summary.
    first_begin, first_end = bounds[0]
    round_one: list = [
        (
            _replay_task,
            (
                0,
                buf[first_begin:first_end],
                first_end - first_begin,
                first_begin,
                (initial,),
                True,
                total == 1,
            ),
        )
    ]
    for index in range(1, total - 1):
        begin, end = bounds[index]
        round_one.append((summary_task, (index, buf[begin:end], end - begin)))
    for result in _run_tasks(pool, compiled, round_one):
        index, value, seconds = result
        if index == 0:
            fragments[0] = value
            replay_seconds += seconds
        else:
            summaries[index] = value
            summary_seconds += seconds

    # Stitch the entry sets left to right.
    entry_sets: list[tuple[int, ...] | None] = [None] * total
    entry_sets[0] = (initial,)
    reachable = [0]
    frontier = fragments[0].exit_states
    for index in range(1, total):
        if not frontier:
            break
        entry_sets[index] = frontier
        reachable.append(index)
        if index < total - 1:
            frontier = apply_summary(summaries[index], frontier)

    # Round two: replay the reachable remainder concurrently.
    round_two = []
    for index in reachable[1:]:
        begin, end = bounds[index]
        round_two.append(
            (
                _replay_task,
                (
                    index,
                    buf[begin:end],
                    end - begin,
                    begin,
                    entry_sets[index],
                    False,
                    index == total - 1,
                ),
            )
        )
    for result in _run_tasks(pool, compiled, round_two):
        index, fragment, seconds = result
        fragments[index] = fragment
        replay_seconds += seconds

    dag = stitch_fragments(
        compiled, n, [fragments[index] for index in reachable]
    )
    (metrics if metrics is not None else SHARD_METRICS).record(
        planned=total,
        evaluated=len(reachable),
        skipped=total - len(reachable),
        summary_seconds=summary_seconds,
        replay_seconds=replay_seconds,
    )
    return dag


def count_sharded(
    compiled: CompiledEVA,
    document: object,
    *,
    workers: int | None = None,
    shards: int | None = None,
    pool=None,
    metrics: ShardMetrics | None = None,
    kernel: str = "scalar",
) -> int:
    """Algorithm 3 shard-parallel — no replay pass at all.

    Count evolution is linear, so each shard contributes a per-entry
    count vector (:func:`_count_run`) and the stitch is matrix-style
    accumulation: the boundary vector entering shard ``k+1`` is the
    boundary vector entering ``k`` pushed through ``k``'s vectors.  The
    total equals :func:`~repro.runtime.engine.count_compiled` exactly.

    ``kernel="runlength"`` (or ``"auto"`` resolving to it) computes both
    the interior summaries and the per-entry count vectors through the
    run-product algebra of :mod:`repro.runtime.runlength` — same
    summaries, same vectors, ``O(log k)`` per run.
    """
    if pool is not None and workers is None:
        workers = pool.workers
    if workers is None:
        workers = 1
    if workers < 1:
        raise EvaluationError(f"worker count must be positive, got {workers}")
    if shards is None:
        shards = max(workers, 1)

    encoded = compiled.encode(document)
    buf = encoded.buffer
    n = encoded.length
    bounds = plan_shards(n, shards)
    total = len(bounds)
    initial = compiled.initial
    if resolve_kernel(kernel, encoded) == "runlength":
        summary_task, count_task = _summary_task_rl, _count_task_rl
    else:
        summary_task, count_task = _summary_task, _count_task

    summary_seconds = 0.0
    replay_seconds = 0.0
    summaries: dict[int, dict[int, tuple[int, ...]]] = {}
    first_vectors: dict[int, dict[int, int]] | None = None

    # Round one: the first shard's count vectors double as its frontier
    # (a live run always carries a positive count); interior shards get
    # the capture-free summary pass.
    first_begin, first_end = bounds[0]
    round_one: list = [
        (
            count_task,
            (
                0,
                buf[first_begin:first_end],
                first_end - first_begin,
                (initial,),
                total == 1,
            ),
        )
    ]
    for index in range(1, total - 1):
        begin, end = bounds[index]
        round_one.append((summary_task, (index, buf[begin:end], end - begin)))
    for result in _run_tasks(pool, compiled, round_one):
        index, value, seconds = result
        if index == 0:
            first_vectors = value
            replay_seconds += seconds
        else:
            summaries[index] = value
            summary_seconds += seconds
    assert first_vectors is not None

    boundary = dict(first_vectors[initial])
    entry_sets: list[tuple[int, ...] | None] = [None] * total
    reachable: list[int] = []
    frontier = tuple(sorted(boundary))
    for index in range(1, total):
        if not frontier:
            break
        entry_sets[index] = frontier
        reachable.append(index)
        if index < total - 1:
            frontier = apply_summary(summaries[index], frontier)

    round_two = []
    for index in reachable:
        begin, end = bounds[index]
        round_two.append(
            (
                count_task,
                (
                    index,
                    buf[begin:end],
                    end - begin,
                    entry_sets[index],
                    index == total - 1,
                ),
            )
        )
    vectors_by_shard: dict[int, dict[int, dict[int, int]]] = {}
    for result in _run_tasks(pool, compiled, round_two):
        index, vectors, seconds = result
        vectors_by_shard[index] = vectors
        replay_seconds += seconds

    for index in reachable:
        vectors = vectors_by_shard[index]
        pushed: dict[int, int] = {}
        for state, amount in boundary.items():
            for target, count in vectors[state].items():
                pushed[target] = pushed.get(target, 0) + amount * count
        boundary = pushed

    is_final = compiled.is_final
    total_count = sum(
        amount for state, amount in boundary.items() if is_final[state]
    )
    (metrics if metrics is not None else SHARD_METRICS).record(
        planned=total,
        evaluated=1 + len(reachable),
        skipped=total - 1 - len(reachable),
        summary_seconds=summary_seconds,
        replay_seconds=replay_seconds,
    )
    return total_count
