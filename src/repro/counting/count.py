"""Algorithm 3: counting ``|⟦A⟧(d)|`` for deterministic sequential eVA.

Theorem 5.1 of the paper states that the number of output mappings of a
deterministic sequential extended VA can be computed in ``O(|A| × |d|)``.
The algorithm mirrors the constant-delay preprocessing (Algorithm 1) but
keeps, per state, only the *number* of partial runs instead of their
compact representation: determinism guarantees each partial run encodes a
distinct partial mapping, and sequentiality guarantees every accepting run
contributes a (valid) output.

The dict-based loop below is the paper-faithful reference; the compiled
runtime provides the integer rewrite of the same algorithm
(:func:`repro.runtime.engine.count_compiled`, on the dense tables or on
the lazily determinized subset automaton) which the
:class:`~repro.spanners.Spanner` facade selects through its execution
plan.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.documents import as_text, read_as
from repro.core.errors import NotDeterministicError, NotSequentialError
from repro.automata.eva import ExtendedVA

__all__ = ["count_mappings"]

State = Hashable


def count_mappings(
    automaton: ExtendedVA,
    document: object,
    *,
    check_determinism: bool = True,
    check_sequentiality: bool = False,
) -> int:
    """Count ``|⟦A⟧(d)|`` in time ``O(|A| × |d|)`` (Theorem 5.1).

    The flags mirror :func:`repro.enumeration.evaluate.evaluate`: the
    determinism check is cheap and on by default, the sequentiality check
    is potentially expensive and off by default.  Counting a
    non-deterministic or non-sequential automaton with this algorithm
    over- or under-counts, hence the guards.
    """
    if not automaton.has_initial:
        return 0
    if check_determinism and not automaton.is_deterministic():
        raise NotDeterministicError("Algorithm 3 requires a deterministic extended VA")
    if check_sequentiality and not automaton.is_sequential():
        raise NotSequentialError("Algorithm 3 requires a sequential extended VA")

    text = read_as(as_text(document), automaton.alphabet())

    variable_transitions: dict[State, list[tuple[object, State]]] = {}
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

    # counts[q] = number of partial runs of A over the processed prefix
    # that end in state q.
    counts: dict[State, int] = {automaton.initial: 1}

    def capturing() -> None:
        snapshot = list(counts.items())
        for state, amount in snapshot:
            for _marker_set, target in variable_transitions.get(state, ()):
                counts[target] = counts.get(target, 0) + amount

    def reading(symbol: str) -> None:
        nonlocal counts
        previous = counts
        counts = {}
        for state, amount in previous.items():
            target = letter_transitions.get(state, {}).get(symbol)
            if target is None:
                continue
            counts[target] = counts.get(target, 0) + amount

    for symbol in text:
        capturing()
        reading(symbol)
    capturing()

    return sum(amount for state, amount in counts.items() if state in automaton.finals)
