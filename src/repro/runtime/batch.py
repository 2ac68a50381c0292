"""Multi-document batch evaluation over a compiled automaton.

:func:`run_batch` streams ``(doc_id, result)`` pairs for every document of
a collection, compiling nothing per document: the caller compiles once
(typically via :meth:`repro.spanners.Spanner.run_batch`) and every
document runs on the one automaton's tables and set plans.

Two execution modes are supported:

``serial``
    A lazy generator in the calling process.  Constant memory beyond the
    current document's DAG.

``processes``
    Documents are chunked and fanned out to a ``multiprocessing`` pool.
    The compiled automaton is pickled **once per worker** (via the pool
    initializer), not once per task.  Results cross the process boundary
    in the flat portable form of
    :class:`~repro.runtime.dag.CompiledResultDag` — tuples of ints that
    pickle in one piece — and the parent reattaches them to its own
    compiled automaton; legacy object DAGs from the reference engine are
    interned into an arena first.

In both modes the :class:`~repro.core.documents.Document` objects flow
down to the engines unconverted, so the per-document encoded-buffer cache
(:mod:`repro.runtime.encoding`) is hit whenever one document appears
several times in a collection, or is evaluated again by another engine
with the same alphabet classing (a document's encoding cache is dropped at
the pickling boundary — each worker encodes against its own tables).

``streaming=True`` additionally switches the ``compiled`` engine to
chunk-fed evaluation (:mod:`repro.runtime.streaming`): each worker feeds
a document through the arena engine in bounded slices instead of
encoding it whole, cutting peak memory per document to one encoded chunk
plus the live arena — the results are array-identical.

The engines, in both modes: ``engine="compiled"`` (also named
``"compiled-otf"``: the arena-building integer runtime over a lazily
determinized :class:`~repro.runtime.subset.CompiledSubsetEVA`, whose
discovered rows are shared across the batch and whose generation is
renewed between documents past
:data:`~repro.runtime.subset.SUBSET_CAP` subsets), ``engine="hybrid"``
(a *prepared* physical operator tree from the expression optimizer — the
portable physical plan pickles once per worker exactly like a compiled
automaton, fused-leaf tables included) and ``engine="reference"`` (the
dict-based Algorithm 1 of :mod:`repro.enumeration.evaluate` over its own
up-front determinization of the compiled automaton's source eVA, built
once per source and process), which the property tests use to
cross-check results.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from typing import Iterable, Iterator

from repro.core.documents import DocumentCollection
from repro.core.errors import ResourceLimitError
from repro.automata.eva import ExtendedVA
from repro.automata.transforms import determinize
from repro.enumeration.evaluate import ResultDag, evaluate as reference_evaluate
from repro.runtime.dag import CompiledResultDag
from repro.runtime.engine import evaluate_compiled_arena
from repro.runtime.operators import OperatorResult, PhysicalOperator
from repro.runtime import faults, resilience
from repro.runtime.plan import MODES
from repro.runtime.resilience import (
    FailureReport,
    ResiliencePolicy,
    ResourceBudget,
    SupervisedPool,
)
from repro.runtime.streaming import evaluate_streaming
from repro.runtime.subset import CompiledSubsetEVA

__all__ = ["run_batch", "freeze_result", "thaw_result"]

ENGINES = ("compiled", "compiled-otf", "reference", "hybrid")

#: Tag discriminating an :class:`OperatorResult` portable form from the
#: arena's (whose first element is the integer document length).
_MAPPINGS_TAG = "mappings"


# ---------------------------------------------------------------------- #
# Portable (process-crossing) result representation
# ---------------------------------------------------------------------- #


def freeze_result(
    result: ResultDag | CompiledResultDag, compiled
) -> tuple:
    """Flatten a result into picklable tuples of ints.

    An arena result is already flat and serializes directly; a legacy
    :class:`ResultDag` (the reference engine) is interned into an arena
    first.  Final states travel under the compiled automaton's
    process-stable keys, so the parent can thaw results produced by a
    worker whose lazy subset runtime interned states in a different order.
    """
    if isinstance(result, OperatorResult):
        return (_MAPPINGS_TAG, *result.to_portable())
    if isinstance(result, CompiledResultDag):
        return result.to_portable()
    return CompiledResultDag.from_result_dag(result, compiled).to_portable()


def thaw_result(portable: tuple, compiled) -> CompiledResultDag | OperatorResult:
    """Reattach a portable result to *compiled*.

    Arena results are rebuilt onto the compiled automaton (node sharing,
    and therefore path counts and enumeration output, is preserved: the
    arena arrays travel verbatim); hybrid operator results are plain
    mapping sets and need no tables.
    """
    if portable and portable[0] == _MAPPINGS_TAG:
        return OperatorResult.from_portable(portable[1:])
    return CompiledResultDag.from_portable(portable, compiled)


# ---------------------------------------------------------------------- #
# Worker-process plumbing (module level so it pickles under any context)
# ---------------------------------------------------------------------- #

#: What this process evaluates, set by :func:`_init_worker`: the
#: ``(compiled, engine, stream_chunk, budget)`` of the run, where a zero
#: ``stream_chunk`` evaluates documents whole.
_worker: tuple | None = None


def _init_worker(
    compiled,
    engine: str,
    stream_chunk: int = 0,
    budget: ResourceBudget | None = None,
    fault_plan: resilience.FaultPlan | None = None,
) -> None:
    global _worker
    _worker = (compiled, engine, stream_chunk, budget)
    faults.install_fault_plan(fault_plan)


def _renewed(compiled):
    """The generation of *compiled* the next document runs on (fused
    leaves of a hybrid plan renew their own)."""
    return compiled if isinstance(compiled, PhysicalOperator) else compiled.renewed()


#: The reference engine's determinization of each source eVA it has run.
_REFERENCE_AUTOMATA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _reference_automaton(source: ExtendedVA) -> ExtendedVA:
    """*source* determinized up front, once per source eVA and process.

    The oracle reads none of the tables the compiled engine discovers,
    and its construction is unbounded, as an oracle's must be.  Its
    states stay frozensets of *source*'s, so a process-mode result
    interns into the compiled automaton's arena by them.
    """
    automaton = _REFERENCE_AUTOMATA.get(source)
    if automaton is None:
        automaton = _REFERENCE_AUTOMATA[source] = determinize(source)
    return automaton


def _evaluate_one(
    compiled,
    document: object,
    engine: str,
    stream_chunk: int = 0,
):
    if faults._ACTIVE_PLAN is not None:
        faults.maybe_fault("evaluate")
    if engine == "hybrid":
        return compiled.execute(document)
    if engine == "reference":
        return reference_evaluate(
            _reference_automaton(compiled.source), document, check_determinism=False
        )
    if stream_chunk:
        # Chunk-fed evaluation: same arena, array for array, but peak
        # memory is one encoded chunk instead of a whole-document buffer.
        return evaluate_streaming(compiled, document, chunk_size=stream_chunk)
    return evaluate_compiled_arena(compiled, document)


def _process_chunk(chunk: list[tuple[object, object]]) -> list[tuple[object, tuple]]:
    global _worker
    assert _worker is not None, "worker pool used before initialization"
    compiled, engine, stream_chunk, budget = _worker
    if faults._ACTIVE_PLAN is not None:
        faults.maybe_fault("task")
    out = []
    for doc_id, document in chunk:
        if budget is not None:
            budget.check_document(document)
        compiled = _renewed(compiled)
        result = _evaluate_one(compiled, document, engine, stream_chunk)
        if budget is not None:
            budget.check_result(result)
        out.append((doc_id, freeze_result(result, compiled)))
    _worker = (compiled, engine, stream_chunk, budget)
    return out


# ---------------------------------------------------------------------- #
# The batch driver
# ---------------------------------------------------------------------- #


def _pairs_of(collection: DocumentCollection) -> Iterator[tuple[object, object]]:
    """Yield ``(doc_id, document)`` pairs of a collection.

    Documents are passed through as objects (not flattened to ``str``) so
    that the engines' per-document encoding cache can be shared: a document
    appearing twice in the collection is translated once.
    """
    yield from collection.items()


def _chunked(pairs: Iterator[tuple[object, object]], size: int) -> Iterator[list]:
    chunk: list[tuple[object, object]] = []
    for pair in pairs:
        chunk.append(pair)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def run_batch(
    compiled: CompiledSubsetEVA | PhysicalOperator,
    documents: DocumentCollection | Iterable[object],
    *,
    mode: str = "serial",
    engine: str = "compiled",
    chunk_size: int = 16,
    max_workers: int | None = None,
    streaming: bool = False,
    stream_chunk_size: int = 65536,
    policy: ResiliencePolicy | None = None,
    report: FailureReport | None = None,
) -> Iterator[tuple[object, ResultDag | CompiledResultDag | OperatorResult]]:
    """Evaluate *compiled* over every document, streaming the results.

    Parameters
    ----------
    compiled:
        The compiled evaluator: a :class:`CompiledSubsetEVA` for the
        ``compiled`` (``compiled-otf``) and ``reference`` engines, or a
        prepared
        :class:`~repro.runtime.operators.PhysicalOperator` tree for
        ``hybrid``.
    documents:
        A :class:`~repro.core.documents.DocumentCollection` or any iterable
        of documents (``str`` or ``Document``).
    mode:
        ``"serial"`` (default) or ``"processes"``.
    engine:
        ``"compiled"`` (default), ``"compiled-otf"``, ``"hybrid"`` or
        ``"reference"``.
    chunk_size:
        Documents per worker task in process mode (ignored when serial).
    max_workers:
        Pool size in process mode; defaults to ``os.cpu_count()``.
    streaming:
        Feed each document to the engine in ``stream_chunk_size``-character
        slices through :func:`~repro.runtime.streaming.evaluate_streaming`
        instead of evaluating it whole.  Only ``engine="compiled"``
        streams; results are array-identical to whole-document arenas,
        but no whole-document class-id buffer is materialized.
    stream_chunk_size:
        Characters per streaming slice (ignored unless *streaming*).
    policy:
        The fault-tolerance policy (:mod:`repro.runtime.resilience`).
        Process mode is *always* supervised — with ``policy=None`` it
        runs under :data:`~repro.runtime.resilience.DEFAULT_POLICY`
        (bounded task deadlines, crash retries, one pool rebuild, exact
        inline fallback, fail-fast on poison documents).  Serial mode
        engages the policy's guards/faults/quarantine only when a policy
        is passed, keeping the default serial path overhead-free.  With
        ``policy.quarantine`` set, documents that fail deterministically
        are recorded in *report* and omitted from the yielded stream
        instead of aborting the batch.
    report:
        A :class:`~repro.runtime.resilience.FailureReport` collecting
        quarantined documents and recovery counters for this run.
        Required when ``policy.quarantine`` is set (one is created
        internally otherwise, but then the caller cannot read it).

    Yields
    ------
    ``(doc_id, result)`` pairs, in collection order; the compiled engines
    yield :class:`CompiledResultDag` arenas, the reference engine legacy
    :class:`ResultDag` objects (arenas in process mode, where everything
    crosses as a portable arena).
    """
    # Validate and coerce eagerly: run_batch itself is a plain function, so
    # a bad mode, engine or documents argument fails at the call site, not
    # at the first iteration of the returned generator.
    if mode not in MODES:
        raise ValueError(f"unknown batch mode {mode!r}; expected one of {MODES}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    # Every engine but ``hybrid`` (a prepared operator tree) reads a
    # CompiledSubsetEVA; the reference engine reads its source eVA.
    runtime_type = PhysicalOperator if engine == "hybrid" else CompiledSubsetEVA
    if not isinstance(compiled, runtime_type):
        raise ValueError(
            f"engine={engine!r} needs a {runtime_type.__name__} "
            f"(got {type(compiled).__name__})"
        )
    if streaming and engine != "compiled":
        raise ValueError(
            f"engine={engine!r} cannot evaluate chunk-fed documents; "
            "streaming batches run the compiled engine"
        )
    if streaming and stream_chunk_size < 1:
        raise ValueError(
            f"stream_chunk_size must be positive, got {stream_chunk_size}"
        )
    if policy is not None and policy.quarantine and report is None:
        report = FailureReport()
    collection = DocumentCollection.coerce(documents)
    stream_chunk = stream_chunk_size if streaming else 0
    return _stream_batch(
        compiled,
        collection,
        mode,
        engine,
        chunk_size,
        max_workers,
        stream_chunk,
        policy,
        report,
    )


def _serial_supervised(
    compiled,
    pairs: Iterator[tuple[object, object]],
    engine: str,
    stream_chunk: int,
    policy: ResiliencePolicy,
    report: FailureReport | None,
) -> Iterator[tuple[object, ResultDag | CompiledResultDag | OperatorResult]]:
    """The serial loop with guards, fault hooks and quarantine engaged."""
    budget = policy.budget
    if policy.faults is not None:
        faults.install_fault_plan(policy.faults)
    try:
        for doc_id, document in pairs:
            try:
                if budget is not None:
                    budget.check_document(document)
                compiled = _renewed(compiled)
                result = _evaluate_one(compiled, document, engine, stream_chunk)
                if budget is not None:
                    budget.check_result(result)
            except Exception as error:
                if policy.quarantine and report is not None:
                    stage = "guard" if _is_guard_error(error) else "evaluate"
                    report.quarantine(doc_id, stage, error)
                    continue
                raise
            yield doc_id, result
    finally:
        if policy.faults is not None:
            faults.clear_fault_plan()


def _is_guard_error(error: BaseException) -> bool:
    return isinstance(error, ResourceLimitError)


def _isolate_chunk(
    supervised: SupervisedPool,
    chunk: list[tuple[object, object]],
    policy: ResiliencePolicy,
    report: FailureReport | None,
) -> list[tuple[object, tuple]]:
    """Re-run a failed chunk one document at a time, inline.

    The inline path runs without fault injection (it is the exactness
    backstop), so only documents that fail *deterministically* — guard
    trips, engine errors — surface here; each is quarantined (or raised,
    when quarantine is off) individually, and the chunk's healthy
    documents still produce their exact results.
    """
    out: list[tuple[object, tuple]] = []
    for pair in chunk:
        try:
            out.extend(supervised.run_inline(_process_chunk, [pair]))
        except Exception as error:
            if policy.quarantine and report is not None:
                stage = "guard" if _is_guard_error(error) else "evaluate"
                report.quarantine(pair[0], stage, error)
                continue
            raise
    return out


def _stream_batch(
    compiled: CompiledSubsetEVA | PhysicalOperator,
    collection: DocumentCollection,
    mode: str,
    engine: str,
    chunk_size: int,
    max_workers: int | None,
    stream_chunk: int,
    policy: ResiliencePolicy | None = None,
    report: FailureReport | None = None,
) -> Iterator[tuple[object, ResultDag | CompiledResultDag | OperatorResult]]:
    pairs = _pairs_of(collection)

    if mode == "serial":
        if policy is not None:
            yield from _serial_supervised(
                compiled, pairs, engine, stream_chunk, policy, report
            )
            return
        for doc_id, document in pairs:
            compiled = _renewed(compiled)
            yield doc_id, _evaluate_one(compiled, document, engine, stream_chunk)
        return

    # Process mode is always supervised: with no explicit policy the
    # defaults bound hangs (per-task deadline), absorb worker crashes
    # (retry → one rebuild → exact inline fallback) and fail fast with a
    # typed error on poison documents.
    if policy is None:
        policy = resilience.DEFAULT_POLICY
    workers = max_workers or os.cpu_count() or 1

    def inline_setup():
        saved = _worker
        # Same initializer the workers run, minus the fault plan: the
        # inline path is the exactness backstop and must never fault.
        _init_worker(compiled, engine, stream_chunk, policy.budget, None)

        def teardown():
            global _worker
            _worker = saved

        return teardown

    supervised = SupervisedPool(
        workers,
        initializer=_init_worker,
        initargs=(compiled, engine, stream_chunk, policy.budget, policy.faults),
        inline_setup=inline_setup,
        policy=policy,
        report=report,
    )
    try:
        # Bounded-window supervised pipeline, collected in submission
        # order so yields stay in collection order.
        chunks = _chunked(pairs, chunk_size)
        window: deque = deque()
        capacity = max(2, workers * 2)

        def refill() -> None:
            while len(window) < capacity:
                chunk = next(chunks, None)
                if chunk is None:
                    return
                window.append((chunk, supervised.submit(_process_chunk, chunk)))

        refill()
        ready: deque = deque()

        def advance() -> bool:
            """Collect the next chunk into ``ready``; False when drained."""
            if not window:
                return False
            chunk, task = window.popleft()
            refill()
            try:
                ready.extend(supervised.collect(task))
            except Exception:
                # A failure somewhere in the chunk: isolate per document
                # (inline, exact) so only the poison one is lost.
                ready.extend(_isolate_chunk(supervised, chunk, policy, report))
            return True

        for doc_id, _document in collection.items():
            while not ready and advance():
                pass
            if ready and ready[0][0] == doc_id:
                ready_id, portable = ready.popleft()
                yield ready_id, thaw_result(portable, compiled)
            # else: no result arrived for doc_id — it was quarantined
            # during chunk isolation; the report carries its record.
    except BaseException:
        # Error path (including an early generator close): in-flight
        # tasks are abandoned, so a hard terminate is the right teardown.
        supervised.terminate()
        raise
    else:
        # Clean completion: every submitted task has been collected, so
        # close/join gracefully instead of tearing workers down mid-exit.
        supervised.close()
