"""Structural analysis of variable-set automata and extended VA.

The constant-delay algorithm needs its input automaton to be *sequential*
(every accepting run is valid) and *deterministic*.  This module implements
the decision procedures for these properties, plus reachability-based
trimming and basic size statistics used by the benchmark harness.

Sequentiality and functionality are decided by a forward exploration of the
product of the automaton with the "variable ledger" that tracks, per
variable, whether it is *unseen*, *open*, *closed* or *violated*
(a marker reused, or a close without an open).  The ledger is the same
abstraction the paper's Proposition 4.1 construction uses for its states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.automata.eva import ExtendedVA
from repro.automata.markers import Marker, MarkerSet
from repro.automata.va import VariableSetAutomaton

__all__ = [
    "AutomatonStatistics",
    "VariableLedger",
    "is_functional",
    "is_sequential",
    "reachable_states",
    "coreachable_states",
    "trim",
    "statistics",
]

State = Hashable

# Per-variable ledger values.
UNSEEN, OPEN, CLOSED, VIOLATED = 0, 1, 2, 3


@dataclass(frozen=True)
class VariableLedger:
    """Tracks the open/close status of every capture variable along a run.

    The ledger is immutable; applying markers returns a new ledger.  The
    special ``VIOLATED`` status is absorbing and records that the run can
    never be valid (a marker was reused or a variable closed before being
    opened).
    """

    variables: tuple[str, ...]
    status: tuple[int, ...]

    @classmethod
    def fresh(cls, variables: tuple[str, ...]) -> "VariableLedger":
        """A ledger where every variable is unseen."""
        return cls(variables, tuple(UNSEEN for _ in variables))

    def _index(self, variable: str) -> int:
        return self.variables.index(variable)

    def apply_marker(self, marker: Marker) -> "VariableLedger":
        """Apply a single marker."""
        return self.apply_markers((marker,))

    def apply_markers(self, markers) -> "VariableLedger":
        """Apply a set of markers (opens are processed before closes)."""
        status = list(self.status)
        ordered = sorted(markers)  # canonical order: opens before closes
        for marker in ordered:
            index = self._index(marker.variable)
            current = status[index]
            if marker.is_open:
                status[index] = OPEN if current == UNSEEN else VIOLATED
            else:
                status[index] = CLOSED if current == OPEN else VIOLATED
        return VariableLedger(self.variables, tuple(status))

    def is_valid_final(self) -> bool:
        """Whether a run ending with this ledger is valid."""
        return all(value in (UNSEEN, CLOSED) for value in self.status)

    def is_total_final(self) -> bool:
        """Whether a run ending with this ledger is valid *and* assigns all variables."""
        return all(value == CLOSED for value in self.status)

    def can_become_valid(self) -> bool:
        """Whether the run can still be completed into a valid run."""
        return VIOLATED not in self.status

    def opened_variables(self) -> frozenset[str]:
        """Variables currently open."""
        return frozenset(
            variable for variable, value in zip(self.variables, self.status) if value == OPEN
        )

    def closed_variables(self) -> frozenset[str]:
        """Variables already closed."""
        return frozenset(
            variable for variable, value in zip(self.variables, self.status) if value == CLOSED
        )


def _explore_ledgers(
    automaton: VariableSetAutomaton | ExtendedVA,
) -> Iterator[tuple[State, VariableLedger]]:
    """All reachable (state, ledger) pairs of the automaton.

    For extended VA the exploration respects the alternation requirement of
    eVA runs: after an extended variable transition, the next transition
    must be a letter transition.  Without this, paths that no actual run
    can take would be reported and the sequentiality check would be overly
    pessimistic.
    """
    if not automaton.has_initial:
        return
    is_extended = isinstance(automaton, ExtendedVA)
    variables = tuple(sorted(automaton.variables()))
    # The boolean flag records whether a variable transition is still
    # allowed from this configuration (it is not, immediately after one).
    start = (automaton.initial, VariableLedger.fresh(variables), True)
    seen = {start}
    frontier = [start]
    while frontier:
        state, ledger, may_capture = frontier.pop()
        yield state, ledger
        successors: list[tuple[State, VariableLedger, bool]] = []
        for _symbol, target in automaton.letter_transitions_from(state):
            successors.append((target, ledger, True))
        if may_capture or not is_extended:
            for label, target in automaton.variable_transitions_from(state):
                if isinstance(label, Marker):
                    new_ledger = ledger.apply_marker(label)
                else:
                    new_ledger = ledger.apply_markers(label)
                successors.append((target, new_ledger, not is_extended))
        for successor in successors:
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)


def is_sequential(automaton: VariableSetAutomaton | ExtendedVA) -> bool:
    """Whether every accepting run of the automaton is valid.

    Note that this follows the paper's definition literally: an automaton
    with *no* accepting run at all is (vacuously) sequential.
    """
    finals = automaton.finals
    for state, ledger in _explore_ledgers(automaton):
        if state in finals and not ledger.is_valid_final():
            return False
    return True


def is_functional(automaton: VariableSetAutomaton | ExtendedVA) -> bool:
    """Whether every accepting run is valid and assigns every variable."""
    finals = automaton.finals
    for state, ledger in _explore_ledgers(automaton):
        if state in finals and not ledger.is_total_final():
            return False
    return True


# ---------------------------------------------------------------------- #
# Reachability and trimming
# ---------------------------------------------------------------------- #


def reachable_states(automaton: VariableSetAutomaton | ExtendedVA) -> frozenset[State]:
    """States reachable from the initial state."""
    if not automaton.has_initial:
        return frozenset()
    seen = {automaton.initial}
    frontier = [automaton.initial]
    while frontier:
        state = frontier.pop()
        for _, target in automaton.letter_transitions_from(state):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
        for _, target in automaton.variable_transitions_from(state):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return frozenset(seen)


def coreachable_states(automaton: VariableSetAutomaton | ExtendedVA) -> frozenset[State]:
    """States from which some final state is reachable."""
    predecessors: dict[State, set[State]] = {}
    for source, _label, target in automaton.transitions():
        predecessors.setdefault(target, set()).add(source)
    seen = set(automaton.finals)
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for source in predecessors.get(state, ()):
            if source not in seen:
                seen.add(source)
                frontier.append(source)
    return frozenset(seen)


def trim(automaton: VariableSetAutomaton | ExtendedVA):
    """Return a copy keeping only useful (reachable and co-reachable) states."""
    useful = reachable_states(automaton) & coreachable_states(automaton)
    if isinstance(automaton, VariableSetAutomaton):
        trimmed: VariableSetAutomaton | ExtendedVA = VariableSetAutomaton()
    else:
        trimmed = ExtendedVA()
    if automaton.has_initial and automaton.initial in useful:
        trimmed.set_initial(automaton.initial)
    elif automaton.has_initial:
        # Keep the initial state so the automaton stays well-formed even if
        # its language is empty.
        trimmed.set_initial(automaton.initial)
    for state in automaton.finals:
        if state in useful:
            trimmed.add_final(state)
    for source, label, target in automaton.transitions():
        if source not in useful or target not in useful:
            continue
        if isinstance(label, (Marker, MarkerSet)):
            trimmed.add_variable_transition(source, label, target)
        else:
            trimmed.add_letter_transition(source, label, target)
    trimmed.declare_letters(automaton.declared)
    return trimmed


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class AutomatonStatistics:
    """Size statistics of an automaton, as used in the paper's bounds."""

    num_states: int
    num_transitions: int
    num_letter_transitions: int
    num_variable_transitions: int
    num_variables: int
    alphabet_size: int
    deterministic: bool | None = None
    sequential: bool | None = None
    functional: bool | None = None

    @property
    def size(self) -> int:
        """``|A|``: states plus transitions."""
        return self.num_states + self.num_transitions


def statistics(
    automaton: VariableSetAutomaton | ExtendedVA, check_properties: bool = False
) -> AutomatonStatistics:
    """Compute size statistics for *automaton*.

    When *check_properties* is true the (potentially expensive) determinism,
    sequentiality and functionality checks are also run.
    """
    letter = sum(1 for _, label, _ in automaton.transitions() if isinstance(label, str))
    total = automaton.num_transitions
    deterministic = sequential = functional = None
    if check_properties:
        deterministic = (
            automaton.is_deterministic() if isinstance(automaton, ExtendedVA) else None
        )
        sequential = is_sequential(automaton)
        functional = is_functional(automaton)
    return AutomatonStatistics(
        num_states=automaton.num_states,
        num_transitions=total,
        num_letter_transitions=letter,
        num_variable_transitions=total - letter,
        num_variables=len(automaton.variables()),
        alphabet_size=len(automaton.alphabet()),
        deterministic=deterministic,
        sequential=sequential,
        functional=functional,
    )
