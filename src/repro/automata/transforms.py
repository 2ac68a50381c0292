"""Translations between spanner automaton models (Section 4 of the paper).

The constant-delay algorithm of Section 3 requires a *deterministic,
sequential, extended* VA.  This module provides the translations that bring
an arbitrary VA or eVA into that form:

* :func:`va_to_eva` / :func:`eva_to_va` — Theorem 3.1,
* :func:`determinize` — Proposition 3.2 (subset construction),
* :func:`sequentialize` — the variable-ledger product underlying
  Proposition 4.1 / 4.3,
* :func:`to_deterministic_sequential_eva` — the full pipeline used by the
  public :class:`~repro.spanners.Spanner` facade.

All constructions are semantics preserving; the property-based tests check
this on randomly generated automata and documents.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.errors import CompilationError, ResourceLimitError
from repro.automata.analysis import VariableLedger, is_sequential, trim
from repro.automata.eva import ExtendedVA
from repro.automata.markers import Marker, MarkerSet
from repro.automata.va import VariableSetAutomaton

__all__ = [
    "SUBSET_BUDGET",
    "va_to_eva",
    "eva_to_va",
    "determinize",
    "sequentialize",
    "relabel_states",
    "to_deterministic_sequential_eva",
]

State = Hashable


# ---------------------------------------------------------------------- #
# Theorem 3.1: VA  ->  eVA
# ---------------------------------------------------------------------- #


def va_to_eva(automaton: VariableSetAutomaton) -> ExtendedVA:
    """Convert a classic VA into an equivalent extended VA (Theorem 3.1).

    Every *variable path* — a sequence of variable transitions that uses
    pairwise distinct markers — between two states ``p`` and ``q`` becomes a
    single extended transition ``(p, Markers(π), q)``.  Letter transitions
    are copied verbatim.  The number of extended transitions can be
    exponential in the number of variables (Proposition 4.2 shows this is
    unavoidable for sequential VA).

    One refinement over the textbook construction is required for
    correctness: a variable path that *closes* a variable before *opening*
    it (``⊣x … x⊢``) can only occur on invalid VA runs, yet its marker set
    ``{x⊢, ⊣x}`` would be read by the eVA as a perfectly valid empty-span
    capture.  Such paths are therefore pruned instead of condensed.
    """
    extended = ExtendedVA()
    for state in automaton.states:
        extended.add_state(state)
    extended.set_initial(automaton.initial)
    for state in automaton.finals:
        extended.add_final(state)
    for source, symbol, target in (
        (s, label, t) for s, label, t in automaton.transitions() if isinstance(label, str)
    ):
        extended.add_letter_transition(source, symbol, target)
    extended.declare_letters(automaton.declared)

    for origin in automaton.states:
        # Depth-first search over variable paths with distinct markers in
        # which no variable is closed before it is opened *within the path*.
        stack: list[tuple[State, frozenset[Marker]]] = [(origin, frozenset())]
        seen: set[tuple[State, frozenset[Marker]]] = {(origin, frozenset())}
        while stack:
            state, used = stack.pop()
            for marker, target in automaton.variable_transitions_from(state):
                if marker in used:
                    continue
                if marker.is_open and marker.dual() in used:
                    # The path already closed this variable; re-opening it
                    # here can never belong to a valid run.
                    continue
                new_used = used | {marker}
                extended.add_variable_transition(origin, MarkerSet(new_used), target)
                key = (target, new_used)
                if key not in seen:
                    seen.add(key)
                    stack.append(key)
    return extended


def eva_to_va(automaton: ExtendedVA) -> VariableSetAutomaton:
    """Convert an extended VA into an equivalent classic VA (Theorem 3.1).

    Every extended transition ``(p, S, q)`` is expanded into a chain of
    single-marker transitions following the canonical marker order (open
    markers before close markers), through ``|S| - 1`` fresh intermediate
    states.

    To remain faithful to eVA run semantics — which *alternate* variable
    and letter transitions — each original state is split into a
    "may capture" and a "must read" phase: marker chains end in the
    "must read" copy, so two extended transitions can never be chained at
    the same document position (which plain chains would allow, silently
    accepting runs the eVA does not have).
    """
    classic = VariableSetAutomaton()

    def capture_phase(state: State) -> State:
        return ("capture", state)

    def read_phase(state: State) -> State:
        return ("read", state)

    for state in automaton.states:
        classic.add_state(capture_phase(state))
        classic.add_state(read_phase(state))
    classic.set_initial(capture_phase(automaton.initial))
    for state in automaton.finals:
        classic.add_final(capture_phase(state))
        classic.add_final(read_phase(state))

    for source, label, target in automaton.transitions():
        if isinstance(label, str):
            # A letter may be read whether or not markers were executed
            # just before it, and it re-enables capturing at the target.
            classic.add_letter_transition(capture_phase(source), label, capture_phase(target))
            classic.add_letter_transition(read_phase(source), label, capture_phase(target))
            continue
        markers = label.canonical_order()
        current = capture_phase(source)
        for index, marker in enumerate(markers):
            if index == len(markers) - 1:
                successor: State = read_phase(target)
            else:
                successor = ("chain", source, label, target, index)
                classic.add_state(successor)
            classic.add_variable_transition(current, marker, successor)
            current = successor
    return classic


# ---------------------------------------------------------------------- #
# Proposition 3.2: determinization
# ---------------------------------------------------------------------- #


#: How many subsets a bounded :func:`determinize` builds before giving up.
#: Measured (2-core Xeon, CPython 3.11) on ``.*a`` + k × ``.`` + ``x{b}.*``
#: (2^(k+1)+5 subsets): a k=16 spanner plus one count of 20k ``ab`` chars
#: takes 232 ms on the fly, 256 ms under ``auto`` (1.10x; 284 ms at 4,096).
#: It bounds subsets, not work, which grows with the source: abandoned
#: attempts took 23/67/224/389 ms at k=16/64/256/512 (23 to 519 states),
#: 65-103 ms for ``.*[a-z0-9]`` + k × ``.`` + ``x{b}.*`` (k <= 256), and
#: 0.2/0.5/1.8 s at k=16/64/256 with the alphabet widened to 37 letters.
SUBSET_BUDGET = 2048


def determinize(automaton: ExtendedVA, budget: int | None = None) -> ExtendedVA:
    """Determinize an extended VA by the subset construction.

    Marker-set labels are treated as atomic alphabet symbols, exactly as in
    Proposition 3.2.  The resulting automaton's states are frozensets of the
    original states; apply :func:`relabel_states` to obtain small integer
    states.  Only subsets reachable from the initial subset are created.

    With a *budget* (such as :data:`SUBSET_BUDGET`) it raises
    :class:`~repro.core.errors.ResourceLimitError` on building subset
    ``budget + 1``, so a blow-up stops after *budget* subsets.
    """
    if not automaton.has_initial:
        raise CompilationError("cannot determinize an automaton without an initial state")
    result = ExtendedVA()
    start = frozenset({automaton.initial})
    result.set_initial(start)
    if start & automaton.finals:
        result.add_final(start)
    frontier = [start]
    seen = {start}
    while frontier:
        subset = frontier.pop()
        # Letter transitions.
        letter_targets: dict[str, set[State]] = {}
        marker_targets: dict[MarkerSet, set[State]] = {}
        for state in subset:
            for symbol, target in automaton.letter_transitions_from(state):
                letter_targets.setdefault(symbol, set()).add(target)
            for marker_set, target in automaton.variable_transitions_from(state):
                marker_targets.setdefault(marker_set, set()).add(target)
        successors: list[tuple[object, frozenset[State]]] = [
            (symbol, frozenset(targets)) for symbol, targets in letter_targets.items()
        ] + [(markers, frozenset(targets)) for markers, targets in marker_targets.items()]
        for label, successor in successors:
            if isinstance(label, MarkerSet):
                result.add_variable_transition(subset, label, successor)
            else:
                result.add_letter_transition(subset, label, successor)
            if successor not in seen:
                seen.add(successor)
                if budget is not None and len(seen) > budget:
                    raise ResourceLimitError(
                        f"subset construction passed {budget} states"
                    )
                if successor & automaton.finals:
                    result.add_final(successor)
                frontier.append(successor)
    result.declare_letters(automaton.declared)
    return result


# ---------------------------------------------------------------------- #
# Proposition 4.1 / 4.3: sequentialization via the variable ledger
# ---------------------------------------------------------------------- #


def sequentialize(automaton: VariableSetAutomaton | ExtendedVA) -> ExtendedVA:
    """Return an equivalent *sequential* extended VA.

    The construction is the product of the automaton with the variable
    ledger that tracks which variables are open/closed along a run; marker
    uses that could never belong to a valid run are dropped, and a product
    state is accepting only when the underlying state is accepting and
    every opened variable has been closed.  This mirrors the state space of
    Proposition 4.1 (``2^n · 3^ℓ`` after determinization).

    Classic VA are first converted with :func:`va_to_eva`.
    """
    extended = va_to_eva(automaton) if isinstance(automaton, VariableSetAutomaton) else automaton
    if not extended.has_initial:
        raise CompilationError("cannot sequentialize an automaton without an initial state")

    variables = tuple(sorted(extended.variables()))
    fresh = VariableLedger.fresh(variables)
    result = ExtendedVA()
    start = (extended.initial, fresh.status)
    result.set_initial(start)
    if extended.initial in extended.finals and fresh.is_valid_final():
        result.add_final(start)

    frontier = [(extended.initial, fresh)]
    seen = {start}
    while frontier:
        state, ledger = frontier.pop()
        source = (state, ledger.status)
        for symbol, target in extended.letter_transitions_from(state):
            successor = (target, ledger.status)
            result.add_letter_transition(source, symbol, successor)
            if successor not in seen:
                seen.add(successor)
                if target in extended.finals and ledger.is_valid_final():
                    result.add_final(successor)
                frontier.append((target, ledger))
        for marker_set, target in extended.variable_transitions_from(state):
            new_ledger = ledger.apply_markers(marker_set)
            if not new_ledger.can_become_valid():
                continue
            successor = (target, new_ledger.status)
            result.add_variable_transition(source, marker_set, successor)
            if successor not in seen:
                seen.add(successor)
                if target in extended.finals and new_ledger.is_valid_final():
                    result.add_final(successor)
                frontier.append((target, new_ledger))
    result.declare_letters(extended.declared)
    return trim(result)


# ---------------------------------------------------------------------- #
# Utilities and the full pipeline
# ---------------------------------------------------------------------- #


def relabel_states(automaton: ExtendedVA) -> ExtendedVA:
    """Rename states to consecutive integers (initial state becomes 0).

    Subset construction and product constructions produce states that are
    frozensets or nested tuples; renaming keeps hashing cheap inside the
    inner loops of Algorithm 1.
    """
    naming: dict[State, int] = {}
    if automaton.has_initial:
        naming[automaton.initial] = 0
    for state in sorted(automaton.states, key=repr):
        naming.setdefault(state, len(naming))
    return automaton.rename_states(naming)


def to_deterministic_sequential_eva(
    automaton: VariableSetAutomaton | ExtendedVA,
    *,
    assume_sequential: bool | None = None,
) -> ExtendedVA:
    """Compile any VA or eVA into a deterministic sequential extended VA.

    This is the full pipeline of Section 4:

    1. classic VA are converted to extended VA (Theorem 3.1);
    2. non-sequential automata are sequentialized through the variable
       ledger product (Proposition 4.1);
    3. the result is trimmed and determinized (Proposition 3.2);
    4. states are renamed to small integers.

    *assume_sequential* can be used to skip the (worst-case exponential)
    sequentiality check when the caller already knows the answer — e.g. for
    functional VA (Proposition 4.3) or for automata produced by the regex
    compiler, which are sequential by construction.
    """
    extended = va_to_eva(automaton) if isinstance(automaton, VariableSetAutomaton) else automaton
    sequential = assume_sequential if assume_sequential is not None else is_sequential(extended)
    if not sequential:
        extended = sequentialize(extended)
    else:
        extended = trim(extended)
    if not extended.is_deterministic():
        extended = determinize(extended)
    return relabel_states(extended)
