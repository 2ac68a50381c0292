"""Multi-document batch evaluation over a compiled automaton.

:func:`run_batch` streams ``(doc_id, result)`` pairs for every document of
a collection, compiling nothing per document: the caller compiles once
(typically via :meth:`repro.spanners.Spanner.run_batch`) and the engine
reuses one :class:`~repro.runtime.engine.EvaluationScratch` per worker.

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

Four engines are available in both modes: ``engine="compiled"`` (the
arena-building integer runtime over a :class:`CompiledEVA`),
``engine="compiled-otf"`` (the lazily determinized subset runtime over a
:class:`~repro.runtime.subset.CompiledSubsetEVA` — pass that as the
*compiled* argument; its discovered rows are shared across the whole
batch), ``engine="hybrid"`` (a *prepared* physical operator tree from the
expression optimizer — the portable physical plan pickles once per worker
exactly like a compiled automaton, fused-leaf tables included) and
``engine="reference"`` (the legacy dict-based Algorithm 1), which the
property tests use to cross-check results.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterable, Iterator

from repro.core.documents import DocumentCollection
from repro.core.errors import ResourceLimitError
from repro.enumeration.evaluate import ResultDag, evaluate as reference_evaluate
from repro.runtime.compiled import CompiledEVA
from repro.runtime.dag import CompiledResultDag
from repro.runtime.engine import EvaluationScratch, evaluate_compiled_arena
from repro.runtime.operators import OperatorResult, PhysicalOperator
from repro.runtime.runlength import KERNELS
from repro.runtime import resilience
from repro.runtime.resilience import (
    FailureReport,
    ResiliencePolicy,
    ResourceBudget,
    SupervisedPool,
)
from repro.runtime.streaming import evaluate_streaming
from repro.runtime.subset import CompiledSubsetEVA, evaluate_subset_arena

__all__ = ["run_batch", "freeze_result", "thaw_result"]

ENGINES = ("compiled", "compiled-otf", "reference", "hybrid")
MODES = ("serial", "processes")

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

_worker_compiled: CompiledEVA | CompiledSubsetEVA | PhysicalOperator | None = None
_worker_scratch: EvaluationScratch | None = None
_worker_engine: str = "compiled"
_worker_stream_chunk: int = 0  # 0: evaluate documents whole
_worker_budget: ResourceBudget | None = None


def _init_worker(
    compiled,
    engine: str,
    stream_chunk: int = 0,
    budget: ResourceBudget | None = None,
    faults: resilience.FaultPlan | None = None,
) -> None:
    global _worker_compiled, _worker_scratch, _worker_engine, _worker_stream_chunk
    global _worker_budget
    _worker_compiled = compiled
    _worker_scratch = (
        EvaluationScratch(compiled) if isinstance(compiled, CompiledEVA) else None
    )
    _worker_engine = engine
    _worker_stream_chunk = stream_chunk
    _worker_budget = budget
    resilience.install_fault_plan(faults)


def _evaluate_one(
    compiled,
    document: object,
    engine: str,
    scratch,
    stream_chunk: int = 0,
):
    if resilience._ACTIVE_PLAN is not None:
        resilience.maybe_fault("evaluate")
    if engine == "hybrid":
        return compiled.execute(document)
    if engine == "reference":
        return reference_evaluate(compiled.source, document, check_determinism=False)
    if engine == "compiled-otf":
        return evaluate_subset_arena(compiled, document)
    if stream_chunk:
        # Chunk-fed evaluation: same arena, array for array, but peak
        # memory is one encoded chunk instead of a whole-document buffer.
        return evaluate_streaming(
            compiled, document, chunk_size=stream_chunk, scratch=scratch
        )
    # Arenas are always scalar: the kernel axis applies only to counting.
    return evaluate_compiled_arena(compiled, document, scratch=scratch)


def _process_chunk(chunk: list[tuple[object, object]]) -> list[tuple[object, tuple]]:
    compiled = _worker_compiled
    assert compiled is not None, "worker pool used before initialization"
    if resilience._ACTIVE_PLAN is not None:
        resilience.maybe_fault("task")
    budget = _worker_budget
    out = []
    for doc_id, document in chunk:
        if budget is not None:
            budget.check_document(document)
        result = _evaluate_one(
            compiled,
            document,
            _worker_engine,
            _worker_scratch,
            _worker_stream_chunk,
        )
        if budget is not None:
            budget.check_result(result)
        out.append((doc_id, freeze_result(result, compiled)))
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
    compiled: CompiledEVA | CompiledSubsetEVA | PhysicalOperator,
    documents: DocumentCollection | Iterable[object],
    *,
    mode: str = "serial",
    engine: str = "compiled",
    chunk_size: int = 16,
    max_workers: int | None = None,
    streaming: bool = False,
    stream_chunk_size: int = 65536,
    kernel: str = "auto",
    policy: ResiliencePolicy | None = None,
    report: FailureReport | None = None,
) -> Iterator[tuple[object, ResultDag | CompiledResultDag | OperatorResult]]:
    """Evaluate *compiled* over every document, streaming the results.

    Parameters
    ----------
    compiled:
        The compiled evaluator: a :class:`CompiledEVA` for the
        ``compiled`` / ``reference`` engines, a :class:`CompiledSubsetEVA`
        for ``compiled-otf``, or a prepared
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
    kernel:
        Inner-loop kernel for the ``compiled`` engine: ``"auto"``
        (default — per document, by run-length statistics),
        ``"scalar"``, or ``"runlength"`` (:mod:`repro.runtime.runlength`).
        The axis applies only to counting; every arena is built by the
        scalar engine, so results are identical whatever the value.
        Forcing ``"runlength"`` on another engine, or on a streaming
        batch (which never sees a whole run-length encoding), is an
        error.
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
    if engine == "compiled-otf" and not isinstance(compiled, CompiledSubsetEVA):
        raise ValueError(
            "engine='compiled-otf' needs a CompiledSubsetEVA "
            f"(got {type(compiled).__name__})"
        )
    if engine != "compiled-otf" and isinstance(compiled, CompiledSubsetEVA):
        raise ValueError(
            f"engine={engine!r} needs a CompiledEVA, not a CompiledSubsetEVA"
        )
    if engine == "hybrid" and not isinstance(compiled, PhysicalOperator):
        raise ValueError(
            "engine='hybrid' needs a prepared physical operator tree "
            f"(got {type(compiled).__name__})"
        )
    if engine != "hybrid" and isinstance(compiled, PhysicalOperator):
        raise ValueError(
            f"engine={engine!r} cannot run a physical operator tree"
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
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if kernel == "runlength" and engine != "compiled":
        raise ValueError(
            f"engine {engine!r} has no run-length kernel; "
            "kernel='runlength' needs the dense-table compiled engine"
        )
    if kernel == "runlength" and streaming:
        raise ValueError(
            "a streaming batch cannot force kernel='runlength': chunk-fed "
            "evaluation never sees the whole run-length encoding"
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
    scratch = (
        EvaluationScratch(compiled) if isinstance(compiled, CompiledEVA) else None
    )
    budget = policy.budget
    if policy.faults is not None:
        resilience.install_fault_plan(policy.faults)
    try:
        for doc_id, document in pairs:
            try:
                if budget is not None:
                    budget.check_document(document)
                result = _evaluate_one(
                    compiled, document, engine, scratch, stream_chunk
                )
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
            resilience.clear_fault_plan()


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
    compiled: CompiledEVA | CompiledSubsetEVA | PhysicalOperator,
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
        scratch = (
            EvaluationScratch(compiled) if isinstance(compiled, CompiledEVA) else None
        )
        for doc_id, document in pairs:
            yield doc_id, _evaluate_one(
                compiled, document, engine, scratch, stream_chunk
            )
        return

    # Process mode is always supervised: with no explicit policy the
    # defaults bound hangs (per-task deadline), absorb worker crashes
    # (retry → one rebuild → exact inline fallback) and fail fast with a
    # typed error on poison documents.
    if policy is None:
        policy = resilience.DEFAULT_POLICY
    workers = max_workers or os.cpu_count() or 1

    def inline_setup():
        saved = (
            _worker_compiled,
            _worker_scratch,
            _worker_engine,
            _worker_stream_chunk,
            _worker_budget,
        )
        # Same initializer the workers run, minus the fault plan: the
        # inline path is the exactness backstop and must never fault.
        _init_worker(compiled, engine, stream_chunk, policy.budget, None)

        def teardown():
            global _worker_compiled, _worker_scratch, _worker_engine
            global _worker_stream_chunk, _worker_budget
            (
                _worker_compiled,
                _worker_scratch,
                _worker_engine,
                _worker_stream_chunk,
                _worker_budget,
            ) = saved

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
