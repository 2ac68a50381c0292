"""Ablation baseline: Algorithm 1 with eager list copying.

The constant factors of the paper's preprocessing phase hinge on the lazy
list data structure: ``lazycopy`` and ``append`` are O(1) because cells are
shared.  This module implements the *same* algorithm with plain Python lists
that are copied eagerly at every Capturing/Reading step.  It produces the
same outputs (the tests check this) but its preprocessing degrades towards
``O(|A| × |d| × |output-related factors|)`` because list copies grow with the
number of partial runs — which is exactly the behaviour the paper's data
structure is designed to avoid.  The lazy-list row of
``tools/check_paper_claims.py`` measures the gap.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.core.documents import as_text, read_as
from repro.core.errors import NotDeterministicError, NotSequentialError
from repro.core.mappings import Mapping
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet
from repro.enumeration.enumerate import mapping_from_steps

__all__ = ["EagerCopyEvaluator"]

State = Hashable

# A partial output is represented as a tuple of (marker set, position) pairs.
PartialOutput = tuple[tuple[MarkerSet, int], ...]


class EagerCopyEvaluator:
    """Algorithm 1 without the lazy-list structure (ablation).

    Per state it keeps the explicit list of partial outputs instead of a
    shared DAG; every Capturing step copies and extends those lists.
    """

    def __init__(self, automaton: ExtendedVA) -> None:
        if not automaton.has_initial:
            raise NotSequentialError("the automaton has no initial state")
        if not automaton.is_deterministic():
            raise NotDeterministicError("the eager-copy evaluator requires a deterministic eVA")
        self._automaton = automaton
        self._variable_transitions: dict[State, list[tuple[MarkerSet, State]]] = {}
        self._letter_transitions: dict[State, dict[str, State]] = {}
        for state in automaton.states:
            outgoing = list(automaton.variable_transitions_from(state))
            if outgoing:
                self._variable_transitions[state] = outgoing
            letters = {
                symbol: target for symbol, target in automaton.letter_transitions_from(state)
            }
            if letters:
                self._letter_transitions[state] = letters

    @property
    def automaton(self) -> ExtendedVA:
        """The automaton being evaluated."""
        return self._automaton

    def partial_outputs(self, document: object) -> dict[State, list[PartialOutput]]:
        """Run the eager variant of Algorithm 1 and return the per-state outputs."""
        text = read_as(as_text(document), self._automaton.alphabet())
        outputs: dict[State, list[PartialOutput]] = {self._automaton.initial: [()]}

        def capturing(position: int) -> None:
            snapshot = list(outputs.items())
            for state, partials in snapshot:
                for marker_set, target in self._variable_transitions.get(state, ()):
                    extended = [partial + ((marker_set, position),) for partial in partials]
                    outputs.setdefault(target, []).extend(extended)

        def reading(position: int) -> None:
            nonlocal outputs
            symbol = text[position]
            previous = outputs
            outputs = {}
            for state, partials in previous.items():
                target = self._letter_transitions.get(state, {}).get(symbol)
                if target is None:
                    continue
                outputs.setdefault(target, []).extend(list(partials))

        for position in range(len(text)):
            capturing(position)
            reading(position)
        capturing(len(text))
        return outputs

    def enumerate(self, document: object) -> Iterator[Mapping]:
        """Enumerate the output mappings (after fully materializing them)."""
        outputs = self.partial_outputs(document)
        finals = self._automaton.finals
        for state, partials in outputs.items():
            if state not in finals:
                continue
            for partial in partials:
                yield mapping_from_steps(partial)

    def evaluate(self, document: object) -> set[Mapping]:
        """Return ``⟦A⟧(d)`` as a set."""
        return set(self.enumerate(document))

    def count(self, document: object) -> int:
        """Count outputs by materializing them."""
        return sum(1 for _ in self.enumerate(document))
