"""Algorithm 2: constant-delay enumeration of the output mappings.

The preprocessing phase (:mod:`repro.enumeration.evaluate`) produces a DAG
whose ⊥-terminated paths are in one-to-one correspondence with the valid
accepting runs of the automaton.  This module walks that DAG depth-first
and yields one :class:`~repro.core.mappings.Mapping` per path.  Because the
automaton is deterministic and sequential, every path yields a distinct
mapping and the work between two consecutive outputs is bounded by the
length of a path, which is at most ``2·ℓ + 1`` for ``ℓ`` variables —
independent of the document.

:func:`delay_profile` instruments the generator with a wall-clock probe;
the benchmark harness uses it to verify the constant-delay claim
empirically.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.automata.markers import MarkerSet
from repro.enumeration.dag import BOTTOM, DagNode
from repro.enumeration.evaluate import ResultDag
from repro.enumeration.lazylist import LazyList

__all__ = ["enumerate_mappings", "mapping_from_steps", "delay_profile"]


def mapping_from_steps(steps: tuple[tuple[MarkerSet, int], ...]) -> Mapping:
    """Decode a sequence of ``(marker set, position)`` pairs into a mapping.

    The sequence must be ordered by increasing position, which is how the
    enumeration procedure produces it.
    """
    opens: dict[str, int] = {}
    assignment: dict[str, Span] = {}
    for marker_set, position in steps:
        for marker in marker_set:
            if marker.is_open:
                opens[marker.variable] = position
        for marker in marker_set:
            if marker.is_close:
                assignment[marker.variable] = Span(opens.pop(marker.variable), position)
    return Mapping(assignment)


def _paths(lazy_list: LazyList, suffix: tuple[tuple[MarkerSet, int], ...]) -> Iterator[tuple]:
    """Depth-first traversal of the DAG (the paper's ``EnumAll``).

    Yields, for every ⊥-terminated path starting from a node of
    *lazy_list*, the sequence of ``(S, i)`` labels in increasing position
    order.  The recursion depth is bounded by the number of non-empty
    marker steps of a run (at most ``2·ℓ + 1``).
    """
    for node in lazy_list:
        if node is BOTTOM:
            yield suffix
        else:
            assert isinstance(node, DagNode)
            yield from _paths(node.adjacency, ((node.markers, node.position),) + suffix)


def enumerate_mappings(result) -> Iterator[Mapping]:
    """Enumerate all output mappings of a preprocessed evaluation.

    The mappings are produced without repetition; the delay between two
    consecutive outputs depends only on the number of variables of the
    evaluated automaton.  A legacy :class:`ResultDag` is walked with the
    recursive object traversal below; a compiled
    :class:`~repro.runtime.dag.CompiledResultDag` arena delegates to its
    own integer walker.
    """
    if not isinstance(result, ResultDag):
        yield from iter(result)
        return
    for lazy_list in result.final_lists.values():
        for steps in _paths(lazy_list, ()):
            yield mapping_from_steps(steps)


def delay_profile(
    result,
    clock: Callable[[], float] = time.perf_counter,
    limit: int | None = None,
) -> list[float]:
    """Measure the wall-clock delay before each enumerated output.

    *result* may be a legacy :class:`ResultDag` or a compiled
    :class:`~repro.runtime.dag.CompiledResultDag` arena — anything whose
    iterator runs Algorithm 2.  Returns the list of elapsed times (in
    seconds) between consecutive outputs, the first entry being the time
    from the start of the enumeration phase to the first output.
    ``limit`` truncates the enumeration, which keeps benchmark runtimes
    manageable for spanners with huge outputs.

    The paper's claim (Section 3.2.2) is that these delays are bounded by a
    function of the number of variables only; ``benchmarks/bench_enumerate.py``
    profiles them, and ``tools/check_paper_claims.py`` gates that they do
    not grow with the document.
    """
    delays: list[float] = []
    previous = clock()
    for index, _mapping in enumerate(iter(result)):
        now = clock()
        delays.append(now - previous)
        previous = now
        if limit is not None and index + 1 >= limit:
            break
    return delays
