"""Polynomial-delay baseline ("flashlight" enumeration) for sequential eVA.

This baseline mirrors the algorithmic idea of Freydenberger, Kimelfeld and
Peterfreund [13] that the paper compares against: enumerate the outputs of
a (not necessarily deterministic) sequential extended VA directly, without
determinizing it first, at the price of a *polynomial* rather than constant
delay.

The enumeration is a depth-first search over the choices "which marker set
(possibly none) is executed at position ``i``".  A choice is only explored
when it can be completed into an accepting run, which is decided with a
precomputed backward-reachability table over the document suffixes — the
"flashlight" that keeps the delay polynomial (``O(|A| × |d|)`` per output)
instead of exponential.  Distinct choice sequences produce distinct
mappings, so no deduplication is needed.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.core.documents import as_text, read_as
from repro.core.errors import NotSequentialError
from repro.core.mappings import Mapping
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet
from repro.automata.transforms import va_to_eva
from repro.automata.va import VariableSetAutomaton
from repro.enumeration.enumerate import mapping_from_steps

__all__ = ["PolynomialDelayEnumerator", "polynomial_delay_evaluate"]

State = Hashable


class PolynomialDelayEnumerator:
    """Flashlight enumeration for sequential extended VA.

    Classic VA inputs are first converted with
    :func:`~repro.automata.transforms.va_to_eva`; for functional VA this
    conversion is polynomial (Proposition 4.3 / Lemma B.1).
    """

    def __init__(
        self,
        automaton: VariableSetAutomaton | ExtendedVA,
        *,
        check_sequentiality: bool = False,
    ) -> None:
        extended = va_to_eva(automaton) if isinstance(automaton, VariableSetAutomaton) else automaton
        if check_sequentiality and not extended.is_sequential():
            raise NotSequentialError("the polynomial-delay baseline requires a sequential automaton")
        self._automaton = extended
        # Per-state transition tables.
        self._variable_transitions: dict[State, dict[MarkerSet, set[State]]] = {}
        self._letter_transitions: dict[State, dict[str, set[State]]] = {}
        for state in extended.states:
            for marker_set, target in extended.variable_transitions_from(state):
                self._variable_transitions.setdefault(state, {}).setdefault(marker_set, set()).add(target)
            for symbol, target in extended.letter_transitions_from(state):
                self._letter_transitions.setdefault(state, {}).setdefault(symbol, set()).add(target)

    @property
    def automaton(self) -> ExtendedVA:
        """The (extended) automaton being evaluated."""
        return self._automaton

    # ------------------------------------------------------------------ #
    # The flashlight table
    # ------------------------------------------------------------------ #

    def _useful_states(self, text: str) -> list[frozenset[State]]:
        """``useful[i]``: states from which acceptance over ``text[i:]`` is possible.

        ``useful[i]`` contains state ``q`` when a run fragment starting at
        ``q`` just before the variable transition of position ``i`` can
        reach a final state after consuming the remaining suffix.
        """
        n = len(text)
        finals = self._automaton.finals
        useful: list[frozenset[State]] = [frozenset()] * (n + 1)

        # Position n: one optional variable transition, then acceptance.
        last = set(finals)
        for state, per_markers in self._variable_transitions.items():
            if any(targets & finals for targets in per_markers.values()):
                last.add(state)
        useful[n] = frozenset(last)

        for position in range(n - 1, -1, -1):
            symbol = text[position]
            successors_ok = useful[position + 1]

            def can_read(state: State) -> bool:
                targets = self._letter_transitions.get(state, {}).get(symbol, ())
                return any(target in successors_ok for target in targets)

            current: set[State] = set()
            for state in self._automaton.states:
                if can_read(state):
                    current.add(state)
                    continue
                per_markers = self._variable_transitions.get(state, {})
                if any(
                    can_read(target)
                    for targets in per_markers.values()
                    for target in targets
                ):
                    current.add(state)
            useful[position] = frozenset(current)
        return useful

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #

    def enumerate(self, document: object) -> Iterator[Mapping]:
        """Enumerate ``⟦A⟧(d)`` with polynomial delay and no repetitions."""
        text = read_as(as_text(document), self._automaton.alphabet())
        n = len(text)
        if not self._automaton.has_initial:
            return
        useful = self._useful_states(text)
        finals = self._automaton.finals
        initial = frozenset({self._automaton.initial})

        def marker_choices(states: frozenset[State]) -> dict[MarkerSet, frozenset[State]]:
            """Successor state sets per available marker set (``∅`` excluded)."""
            choices: dict[MarkerSet, set[State]] = {}
            for state in states:
                for marker_set, targets in self._variable_transitions.get(state, {}).items():
                    choices.setdefault(marker_set, set()).update(targets)
            return {marker_set: frozenset(targets) for marker_set, targets in choices.items()}

        def read(states: frozenset[State], position: int) -> frozenset[State]:
            symbol = text[position]
            targets: set[State] = set()
            for state in states:
                targets.update(self._letter_transitions.get(state, {}).get(symbol, ()))
            return frozenset(target for target in targets if target in useful[position + 1])

        def explore(
            states: frozenset[State], position: int, steps: tuple[tuple[MarkerSet, int], ...]
        ) -> Iterator[Mapping]:
            if position == n:
                if states & finals:
                    yield mapping_from_steps(steps)
                for marker_set, targets in sorted(
                    marker_choices(states).items(), key=lambda item: str(item[0])
                ):
                    if targets & finals:
                        yield mapping_from_steps(steps + ((marker_set, position),))
                return
            # Option 1: no variable transition at this position.
            skipped = read(states, position)
            if skipped:
                yield from explore(skipped, position + 1, steps)
            # Option 2: one of the available marker sets.
            for marker_set, targets in sorted(
                marker_choices(states).items(), key=lambda item: str(item[0])
            ):
                advanced = read(frozenset(targets), position)
                if advanced:
                    yield from explore(advanced, position + 1, steps + ((marker_set, position),))

        yield from explore(initial, 0, ())

    def evaluate(self, document: object) -> set[Mapping]:
        """Return ``⟦A⟧(d)`` as a materialized set."""
        return set(self.enumerate(document))

    def count(self, document: object) -> int:
        """Count the outputs by full enumeration."""
        return sum(1 for _ in self.enumerate(document))


def polynomial_delay_evaluate(
    automaton: VariableSetAutomaton | ExtendedVA, document: object
) -> set[Mapping]:
    """Convenience wrapper around :class:`PolynomialDelayEnumerator`."""
    return PolynomialDelayEnumerator(automaton).evaluate(document)
