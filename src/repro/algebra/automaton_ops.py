"""Automaton-level algebra operators on extended VA (Proposition 4.4).

The paper shows that for *functional* extended VA the algebra operators can
be applied directly on the automata with modest size increases:

* join      — a product construction, quadratic in size,
* union     — linear (or quadratic if determinism must be preserved,
              Lemma B.2),
* projection — linear (markers of projected-away variables are dropped and
              the resulting ε-transitions eliminated).

The constructions below follow the proofs of Proposition 4.4 and
Lemma B.2.  They are semantics preserving for functional inputs, which the
integration and property tests verify against the set-level operators of
:mod:`repro.algebra.operators`.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.errors import CompilationError
from repro.automata.analysis import trim
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet

__all__ = ["join_eva", "union_eva", "union_deterministic_eva", "project_eva"]

State = Hashable


def join_eva(left: ExtendedVA, right: ExtendedVA) -> ExtendedVA:
    """``A1 ⋈ A2`` for functional extended VA (Proposition 4.4).

    The automata run in parallel; marker transitions over the *shared*
    variables must be taken simultaneously and agree on the shared markers,
    while markers of private variables may be executed by either side
    alone.  The result has at most ``|Q1| × |Q2|`` states.
    """
    if not left.has_initial or not right.has_initial:
        raise CompilationError("join requires automata with initial states")
    shared_variables = left.variables() & right.variables()

    product = ExtendedVA()
    initial = (left.initial, right.initial)
    product.set_initial(initial)
    for final_left in left.finals:
        for final_right in right.finals:
            product.add_final((final_left, final_right))

    frontier = [initial]
    seen = {initial}
    while frontier:
        state_left, state_right = frontier.pop()
        source = (state_left, state_right)
        successors: list[tuple[object, tuple[State, State]]] = []

        # Letter transitions: both sides read the same character.
        right_letters: dict[str, list[State]] = {}
        for symbol, target in right.letter_transitions_from(state_right):
            right_letters.setdefault(symbol, []).append(target)
        for symbol, target_left in left.letter_transitions_from(state_left):
            for target_right in right_letters.get(symbol, ()):
                successors.append((symbol, (target_left, target_right)))

        left_markers = list(left.variable_transitions_from(state_left))
        right_markers = list(right.variable_transitions_from(state_right))

        # Markers private to the left automaton.
        for marker_set, target_left in left_markers:
            if not (marker_set.variables() & shared_variables):
                successors.append((marker_set, (target_left, state_right)))
        # Markers private to the right automaton.
        for marker_set, target_right in right_markers:
            if not (marker_set.variables() & shared_variables):
                successors.append((marker_set, (state_left, target_right)))
        # Simultaneous transitions agreeing on the shared markers.
        for marker_set_left, target_left in left_markers:
            shared_left = marker_set_left.restrict(shared_variables)
            for marker_set_right, target_right in right_markers:
                shared_right = marker_set_right.restrict(shared_variables)
                if shared_left == shared_right:
                    successors.append(
                        (marker_set_left.union(marker_set_right), (target_left, target_right))
                    )

        for label, successor in successors:
            if isinstance(label, MarkerSet):
                product.add_variable_transition(source, label, successor)
            else:
                product.add_letter_transition(source, label, successor)
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    product.declare_letters(left.declared | right.declared)
    return trim(product)


def union_eva(left: ExtendedVA, right: ExtendedVA) -> ExtendedVA:
    """``A1 ∪ A2``: linear-size union (Proposition 4.4).

    The two automata are copied side by side (states are tagged to keep
    them disjoint) and a fresh initial state replicates the outgoing
    transitions of both original initial states, avoiding ε-transitions.
    """
    if not left.has_initial or not right.has_initial:
        raise CompilationError("union requires automata with initial states")
    result = ExtendedVA()
    fresh_initial = ("∪", "initial")
    result.set_initial(fresh_initial)

    def copy(automaton: ExtendedVA, tag: str) -> None:
        for state in automaton.states:
            result.add_state((tag, state))
        for state in automaton.finals:
            result.add_final((tag, state))
        for source, label, target in automaton.transitions():
            if isinstance(label, MarkerSet):
                result.add_variable_transition((tag, source), label, (tag, target))
            else:
                result.add_letter_transition((tag, source), label, (tag, target))
        # Replicate the initial state's outgoing transitions on the fresh
        # initial state.
        for symbol, target in automaton.letter_transitions_from(automaton.initial):
            result.add_letter_transition(fresh_initial, symbol, (tag, target))
        for marker_set, target in automaton.variable_transitions_from(automaton.initial):
            result.add_variable_transition(fresh_initial, marker_set, (tag, target))
        if automaton.initial in automaton.finals:
            result.add_final(fresh_initial)

    copy(left, "left")
    copy(right, "right")
    result.declare_letters(left.declared | right.declared)
    return result


def union_deterministic_eva(left: ExtendedVA, right: ExtendedVA) -> ExtendedVA:
    """Determinism-preserving union of two deterministic feVA (Lemma B.2).

    The automata run in parallel for as long as both have a transition on
    the current label; when exactly one of them can move, the run "branches
    off" into a copy of that automaton alone.  The result is deterministic
    whenever both inputs are, and has ``O(|Q1| × |Q2|)`` states.
    """
    if not left.has_initial or not right.has_initial:
        raise CompilationError("union requires automata with initial states")

    result = ExtendedVA()
    initial = ("both", left.initial, right.initial)
    result.set_initial(initial)

    def add_single_copy(automaton: ExtendedVA, tag: str) -> None:
        for state in automaton.finals:
            result.add_final((tag, state))
        for source, label, target in automaton.transitions():
            if isinstance(label, MarkerSet):
                result.add_variable_transition((tag, source), label, (tag, target))
            else:
                result.add_letter_transition((tag, source), label, (tag, target))

    add_single_copy(left, "left")
    add_single_copy(right, "right")

    frontier = [(left.initial, right.initial)]
    seen = {(left.initial, right.initial)}
    while frontier:
        state_left, state_right = frontier.pop()
        source = ("both", state_left, state_right)
        if state_left in left.finals or state_right in right.finals:
            result.add_final(source)

        labels_left: dict[object, State] = {}
        for symbol, target in left.letter_transitions_from(state_left):
            labels_left[symbol] = target
        for marker_set, target in left.variable_transitions_from(state_left):
            labels_left[marker_set] = target
        labels_right: dict[object, State] = {}
        for symbol, target in right.letter_transitions_from(state_right):
            labels_right[symbol] = target
        for marker_set, target in right.variable_transitions_from(state_right):
            labels_right[marker_set] = target

        for label, target_left in labels_left.items():
            target_right = labels_right.get(label)
            if target_right is not None:
                successor = ("both", target_left, target_right)
                if (target_left, target_right) not in seen:
                    seen.add((target_left, target_right))
                    frontier.append((target_left, target_right))
            else:
                successor = ("left", target_left)
            if isinstance(label, MarkerSet):
                result.add_variable_transition(source, label, successor)
            else:
                result.add_letter_transition(source, label, successor)
        for label, target_right in labels_right.items():
            if label in labels_left:
                continue
            successor = ("right", target_right)
            if isinstance(label, MarkerSet):
                result.add_variable_transition(source, label, successor)
            else:
                result.add_letter_transition(source, label, successor)
    result.declare_letters(left.declared | right.declared)
    return trim(result)


def project_eva(automaton: ExtendedVA, variables: Iterable[str]) -> ExtendedVA:
    """``π_Y(A)``: drop the markers of projected-away variables (Proposition 4.4).

    Marker sets are restricted to the kept variables.  A transition whose
    restricted set becomes empty turns into an ε-transition; because an eVA
    run performs at most one variable transition per document position,
    such an ε may be composed with **at most one** following letter
    transition (or with acceptance at the end of the document), never with
    another variable transition.  The elimination below therefore:

    * keeps non-empty restricted marker transitions unchanged,
    * adds a letter transition ``(q, a, p)`` whenever ``q --ε--> s --a--> p``,
    * marks ``q`` accepting whenever ``q --ε--> p`` with ``p`` accepting.

    The construction is linear in ``|A|``.
    """
    if not automaton.has_initial:
        raise CompilationError("projection requires an automaton with an initial state")
    keep = frozenset(variables)

    epsilon_successors: dict[State, set[State]] = {}
    result = ExtendedVA()
    result.set_initial(automaton.initial)
    for state in automaton.finals:
        result.add_final(state)

    for source, label, target in automaton.transitions():
        if isinstance(label, MarkerSet):
            restricted = label.restrict(keep)
            if restricted.non_empty():
                result.add_variable_transition(source, restricted, target)
            else:
                epsilon_successors.setdefault(source, set()).add(target)
        else:
            result.add_letter_transition(source, label, target)

    finals = automaton.finals
    for source, silent_targets in epsilon_successors.items():
        for silent in silent_targets:
            if silent in finals:
                result.add_final(source)
            for symbol, target in automaton.letter_transitions_from(silent):
                result.add_letter_transition(source, symbol, target)
    result.declare_letters(automaton.declared)
    return trim(result)
