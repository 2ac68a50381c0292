"""Algorithm 1: linear-time preprocessing for constant-delay enumeration.

Given a deterministic, sequential extended VA ``A`` and a document ``d``,
:func:`evaluate` runs the paper's ``Evaluate`` procedure: it processes the
document one character at a time, alternating the ``Capturing`` and
``Reading`` phases, and incrementally builds the *reverse-dual DAG* whose
paths (ending in the ⊥ sink) are in one-to-one correspondence with the
valid accepting runs of ``A`` over ``d``.

The preprocessing time is ``O(|A| × |d|)`` and the returned
:class:`ResultDag` supports duplicate-free enumeration of ``⟦A⟧(d)`` with
delay independent of ``|d|`` (see :mod:`repro.enumeration.enumerate`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Iterator, Mapping as MappingView

from repro.core.documents import as_text, read_as
from repro.core.errors import NotDeterministicError, NotSequentialError
from repro.core.mappings import Mapping
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet
from repro.enumeration.dag import BOTTOM, DagNode
from repro.enumeration.lazylist import LazyList

__all__ = ["ResultDag", "evaluate"]

State = Hashable


class ResultDag:
    """The output of the preprocessing phase.

    Holds, for every accepting state that is *live* at the end of the
    document, the lazy list of DAG nodes representing the last variable
    transitions of accepting runs.  Enumeration and counting traverse this
    structure without touching the document again.
    """

    def __init__(
        self,
        automaton: ExtendedVA,
        document_length: int,
        final_lists: dict[State, LazyList],
    ) -> None:
        self._automaton = automaton
        self._document_length = document_length
        self._final_lists = final_lists
        self._final_lists_view = MappingProxyType(final_lists)

    @property
    def automaton(self) -> ExtendedVA:
        """The automaton that was evaluated."""
        return self._automaton

    @property
    def document_length(self) -> int:
        """The length of the evaluated document."""
        return self._document_length

    @property
    def final_lists(self) -> MappingView[State, LazyList]:
        """The per-accepting-state lists of last DAG nodes.

        A read-only mapping view: enumeration and counting walk this on
        every query, so the property must not copy the dict per access.
        """
        return self._final_lists_view

    def is_empty(self) -> bool:
        """Whether the spanner produced no output mapping at all."""
        return all(lazy_list.is_empty() for lazy_list in self._final_lists.values())

    def __iter__(self) -> Iterator[Mapping]:
        from repro.enumeration.enumerate import enumerate_mappings

        return enumerate_mappings(self)

    def mappings(self) -> Iterator[Mapping]:
        """Enumerate the output mappings (Algorithm 2) with constant delay."""
        return iter(self)

    def count(self) -> int:
        """Count the output mappings directly on the DAG.

        This complements Algorithm 3 (which counts without building the
        DAG, see :mod:`repro.counting.count`): the number of outputs equals
        the number of distinct ⊥-terminated paths, computed here by a
        memoized traversal in time linear in the size of the DAG.
        """
        cache: dict[int, int] = {}

        def paths_from(node: object) -> int:
            if node is BOTTOM:
                return 1
            assert isinstance(node, DagNode)
            key = id(node)
            if key not in cache:
                cache[key] = sum(paths_from(child) for child in node.adjacency)
            return cache[key]

        return sum(
            paths_from(node)
            for lazy_list in self._final_lists.values()
            for node in lazy_list
        )

    def node_count(self) -> int:
        """The number of distinct DAG nodes reachable from the final lists."""
        seen: set[int] = set()
        stack: list[object] = [
            node
            for lazy_list in self._final_lists.values()
            for node in lazy_list
            if node is not BOTTOM
        ]
        while stack:
            node = stack.pop()
            assert isinstance(node, DagNode)
            if id(node) in seen:
                continue
            seen.add(id(node))
            for child in node.adjacency:
                if child is not BOTTOM and id(child) not in seen:
                    stack.append(child)
        return len(seen)


def evaluate(
    automaton: ExtendedVA,
    document: object,
    *,
    check_determinism: bool = True,
    check_sequentiality: bool = False,
) -> ResultDag:
    """Run the preprocessing phase of the constant-delay algorithm.

    Parameters
    ----------
    automaton:
        A deterministic sequential extended VA.  Use
        :func:`repro.automata.transforms.to_deterministic_sequential_eva`
        (or the :class:`~repro.spanners.Spanner` facade) to obtain one from
        an arbitrary spanner.
    document:
        The document (``str`` or :class:`~repro.core.documents.Document`).
    check_determinism:
        Verify determinism up front (cheap, enabled by default).
    check_sequentiality:
        Verify sequentiality up front.  The check explores the automaton's
        variable-ledger product and can be exponential in the number of
        variables, so it is off by default; a non-sequential automaton
        would make the enumeration produce spurious mappings.

    Returns
    -------
    ResultDag
        The compact representation of ``⟦A⟧(d)``.
    """
    if not automaton.has_initial:
        raise NotSequentialError("the automaton has no initial state")
    if check_determinism and not automaton.is_deterministic():
        raise NotDeterministicError(
            "the constant-delay algorithm requires a deterministic extended VA"
        )
    if check_sequentiality and not automaton.is_sequential():
        raise NotSequentialError(
            "the constant-delay algorithm requires a sequential extended VA"
        )

    text = read_as(as_text(document), automaton.alphabet())
    n = len(text)

    # Per-state transition tables, precomputed once so the inner loops only
    # perform dictionary lookups.
    variable_transitions: dict[State, list[tuple[MarkerSet, State]]] = {}
    letter_transitions: dict[State, dict[str, State]] = {}
    for state in automaton.states:
        outgoing = list(automaton.variable_transitions_from(state))
        if outgoing:
            variable_transitions[state] = outgoing
        letters = {
            symbol: target for symbol, target in automaton.letter_transitions_from(state)
        }
        if letters:
            letter_transitions[state] = letters

    # listq for every live state q.  Only live (non-empty) lists are kept.
    initial_list = LazyList()
    initial_list.add(BOTTOM)
    lists: dict[State, LazyList] = {automaton.initial: initial_list}

    def capturing(position: int) -> None:
        """Simulate the extended variable transitions before reading position *position*."""
        snapshot = [
            (state, lazy_list.lazycopy()) for state, lazy_list in lists.items()
        ]
        for state, old_list in snapshot:
            for marker_set, target in variable_transitions.get(state, ()):
                node = DagNode(marker_set, position, old_list)
                target_list = lists.get(target)
                if target_list is None:
                    target_list = LazyList()
                    lists[target] = target_list
                target_list.add(node)

    def reading(position: int) -> None:
        """Simulate reading the character at *position*."""
        nonlocal lists
        symbol = text[position]
        old_lists = lists
        lists = {}
        for state, old_list in old_lists.items():
            target = letter_transitions.get(state, {}).get(symbol)
            if target is None:
                continue
            target_list = lists.get(target)
            if target_list is None:
                target_list = LazyList()
                lists[target] = target_list
            target_list.append(old_list)

    for position in range(n):
        capturing(position)
        reading(position)
    capturing(n)

    final_lists = {
        state: lazy_list
        for state, lazy_list in lists.items()
        if state in automaton.finals and not lazy_list.is_empty()
    }
    return ResultDag(automaton, n, final_lists)
