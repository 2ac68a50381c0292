"""Extended variable-set automata (eVA).

Extended VA (Section 3.1 of the paper) differ from classic VA in that a
single *extended variable transition* is labelled by a non-empty **set** of
markers, and runs must alternate between variable transitions and letter
transitions.  This normal form removes the run-order ambiguity of classic
VA and is the input format of the constant-delay algorithm.

The class exposes the reference run-based semantics (exponential, used as
ground truth) plus the structural predicates the paper relies on:
*deterministic*, *sequential* and *functional*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.core.documents import as_text, is_letter, read_as
from repro.core.errors import CompilationError
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.automata.markers import Marker, MarkerSet

__all__ = ["ExtendedVA", "EVARun"]

State = Hashable


@dataclass(frozen=True)
class EVARun:
    """A run of an extended VA over a document.

    ``marker_steps`` is the tuple of ``(position, MarkerSet)`` pairs for the
    *non-empty* variable transitions taken (position is 0-based: the number
    of characters read before the transition), and ``states`` is the full
    sequence of states visited.
    """

    marker_steps: tuple[tuple[int, MarkerSet], ...]
    states: tuple[State, ...]

    def mapping(self) -> Mapping:
        """The mapping encoded by the run's marker steps."""
        opens: dict[str, int] = {}
        assignment: dict[str, Span] = {}
        for position, markers in self.marker_steps:
            for marker in markers:
                if marker.is_open:
                    opens[marker.variable] = position
            for marker in markers:
                if marker.is_close:
                    assignment[marker.variable] = Span(opens.pop(marker.variable), position)
        return Mapping(assignment)


class ExtendedVA:
    """An extended variable-set automaton.

    Letter transitions are ``(q, a, q')`` with ``a`` a single character;
    variable transitions are ``(q, S, q')`` with ``S`` a non-empty
    :class:`~repro.automata.markers.MarkerSet`.
    """

    def __init__(self) -> None:
        self._states: set[State] = set()
        self._initial: State | None = None
        self._finals: set[State] = set()
        # state -> symbol -> set of targets
        self._letter: dict[State, dict[str, set[State]]] = {}
        # state -> MarkerSet -> set of targets
        self._variable: dict[State, dict[MarkerSet, set[State]]] = {}
        #: Letters named without a transition (see declare_letters).
        self.declared: frozenset[str] = frozenset()
        # Memoized frozenset views handed out by letter_targets /
        # variable_targets, invalidated on mutation, so repeated calls to
        # the accessors don't allocate a fresh frozenset each time.
        self._letter_targets_cache: dict[tuple[State, str], frozenset[State]] = {}
        self._variable_targets_cache: dict[tuple[State, MarkerSet], frozenset[State]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_state(self, state: State) -> State:
        """Register *state* (idempotent) and return it."""
        self._states.add(state)
        return state

    def set_initial(self, state: State) -> None:
        """Declare the (unique) initial state."""
        self.add_state(state)
        self._initial = state

    def add_final(self, state: State) -> None:
        """Mark *state* as accepting."""
        self.add_state(state)
        self._finals.add(state)

    def add_letter_transition(self, source: State, symbol: str, target: State) -> None:
        """Add a letter transition ``(source, symbol, target)``."""
        if not is_letter(symbol):
            raise CompilationError(f"letter transitions need single-character symbols, got {symbol!r}")
        self.add_state(source)
        self.add_state(target)
        self._letter.setdefault(source, {}).setdefault(symbol, set()).add(target)
        self._letter_targets_cache.pop((source, symbol), None)

    def declare_letters(self, letters: Iterable[str]) -> None:
        """Name *letters* in the alphabet even if no transition reads them.

        An automaton that reads :data:`~repro.core.documents.OTHER` must
        know every letter it names: a letter that a negated class excludes
        has no transition, yet must not read as OTHER.
        """
        self.declared |= frozenset(letters)

    def add_variable_transition(
        self, source: State, markers: MarkerSet | Iterable[Marker], target: State
    ) -> None:
        """Add an extended variable transition labelled by a non-empty marker set."""
        marker_set = markers if isinstance(markers, MarkerSet) else MarkerSet(markers)
        if not marker_set.non_empty():
            raise CompilationError("extended variable transitions must carry a non-empty marker set")
        self.add_state(source)
        self.add_state(target)
        self._variable.setdefault(source, {}).setdefault(marker_set, set()).add(target)
        self._variable_targets_cache.pop((source, marker_set), None)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> frozenset[State]:
        """All states."""
        return frozenset(self._states)

    @property
    def initial(self) -> State:
        """The initial state."""
        if self._initial is None:
            raise CompilationError("the automaton has no initial state")
        return self._initial

    @property
    def has_initial(self) -> bool:
        """Whether an initial state has been declared."""
        return self._initial is not None

    @property
    def finals(self) -> frozenset[State]:
        """The accepting states."""
        return frozenset(self._finals)

    def variables(self) -> frozenset[str]:
        """``var(A)``: all variables mentioned by some transition."""
        found: set[str] = set()
        for per_state in self._variable.values():
            for marker_set in per_state:
                found.update(marker_set.variables())
        return frozenset(found)

    def alphabet(self) -> frozenset[str]:
        """All symbols mentioned by letter transitions or declared."""
        found: set[str] = set(self.declared)
        for per_state in self._letter.values():
            found.update(per_state)
        return frozenset(found)

    def letter_targets(self, state: State, symbol: str) -> frozenset[State]:
        """Targets of letter transitions from *state* on *symbol* (memoized)."""
        key = (state, symbol)
        targets = self._letter_targets_cache.get(key)
        if targets is None:
            targets = frozenset(self._letter.get(state, {}).get(symbol, ()))
            self._letter_targets_cache[key] = targets
        return targets

    def variable_targets(self, state: State, markers: MarkerSet) -> frozenset[State]:
        """Targets of the extended variable transition from *state* labelled *markers* (memoized)."""
        key = (state, markers)
        targets = self._variable_targets_cache.get(key)
        if targets is None:
            targets = frozenset(self._variable.get(state, {}).get(markers, ()))
            self._variable_targets_cache[key] = targets
        return targets

    def marker_sets_from(self, state: State) -> Iterator[MarkerSet]:
        """``Markers_δ(q)``: the marker sets labelling variable transitions from *state*."""
        return iter(self._variable.get(state, {}))

    def letter_transitions_from(self, state: State) -> Iterator[tuple[str, State]]:
        """Iterate over ``(symbol, target)`` letter transitions from *state*."""
        for symbol, targets in self._letter.get(state, {}).items():
            for target in targets:
                yield symbol, target

    def variable_transitions_from(self, state: State) -> Iterator[tuple[MarkerSet, State]]:
        """Iterate over ``(marker_set, target)`` variable transitions from *state*."""
        for marker_set, targets in self._variable.get(state, {}).items():
            for target in targets:
                yield marker_set, target

    def transitions(self) -> Iterator[tuple[State, object, State]]:
        """Iterate over all transitions as ``(source, label, target)``."""
        for source, per_symbol in self._letter.items():
            for symbol, targets in per_symbol.items():
                for target in targets:
                    yield source, symbol, target
        for source, per_markers in self._variable.items():
            for marker_set, targets in per_markers.items():
                for target in targets:
                    yield source, marker_set, target

    @property
    def num_states(self) -> int:
        """The number of states."""
        return len(self._states)

    @property
    def num_transitions(self) -> int:
        """The number of transitions (letter plus variable)."""
        return sum(1 for _ in self.transitions())

    @property
    def num_variable_transitions(self) -> int:
        """The number of extended variable transitions."""
        return sum(
            len(targets)
            for per_markers in self._variable.values()
            for targets in per_markers.values()
        )

    @property
    def size(self) -> int:
        """``|A|``: number of states plus number of transitions."""
        return self.num_states + self.num_transitions

    # ------------------------------------------------------------------ #
    # Structural predicates
    # ------------------------------------------------------------------ #

    def is_deterministic(self) -> bool:
        """Whether the transition relation is a partial function.

        Determinism here is per the paper: for every state and every symbol
        there is at most one target, and for every state and every *marker
        set* there is at most one target.  It does **not** mean a unique run
        per document — only that each run produces a distinct mapping.
        """
        for per_symbol in self._letter.values():
            for targets in per_symbol.values():
                if len(targets) > 1:
                    return False
        for per_markers in self._variable.values():
            for targets in per_markers.values():
                if len(targets) > 1:
                    return False
        return True

    def is_sequential(self) -> bool:
        """Whether every accepting run is valid."""
        from repro.automata.analysis import is_sequential

        return is_sequential(self)

    def is_functional(self) -> bool:
        """Whether every accepting run is valid and mentions all variables."""
        from repro.automata.analysis import is_functional

        return is_functional(self)

    def deterministic_letter_successor(self, state: State, symbol: str) -> State | None:
        """``δ(q, a)`` for deterministic automata (``None`` if undefined)."""
        targets = self._letter.get(state, {}).get(symbol)
        if not targets:
            return None
        if len(targets) > 1:
            raise CompilationError(f"state {state!r} is non-deterministic on symbol {symbol!r}")
        return next(iter(targets))

    def deterministic_variable_successor(self, state: State, markers: MarkerSet) -> State | None:
        """``δ(q, S)`` for deterministic automata (``None`` if undefined)."""
        targets = self._variable.get(state, {}).get(markers)
        if not targets:
            return None
        if len(targets) > 1:
            raise CompilationError(f"state {state!r} is non-deterministic on marker set {markers}")
        return next(iter(targets))

    # ------------------------------------------------------------------ #
    # Reference semantics
    # ------------------------------------------------------------------ #

    def runs(self, document: object) -> Iterator[EVARun]:
        """Enumerate the valid accepting runs of the automaton over *document*.

        This is a direct implementation of the run definition (Equation 2 of
        the paper): variable transitions and letter transitions alternate,
        a variable transition may be skipped (``S = ∅`` keeps the state),
        and a run is valid when markers are used consistently.
        """
        text = read_as(as_text(document), self.alphabet())
        if self._initial is None:
            return
        n = len(text)

        # Configuration: (state, position, phase, opened, closed, steps, states)
        # phase: "capture" before the variable transition at this position,
        #        "read" after it (about to consume text[position]).
        initial_config = (self._initial, 0, "capture", frozenset(), frozenset(), (), (self._initial,))
        stack = [initial_config]
        while stack:
            state, position, phase, opened, closed, steps, visited = stack.pop()
            if phase == "capture":
                # Option 1: skip the variable transition (S = ∅, stay put).
                stack.append((state, position, "read", opened, closed, steps, visited))
                # Option 2: take one extended variable transition.
                for marker_set, targets in self._variable.get(state, {}).items():
                    outcome = _apply_marker_set(marker_set, opened, closed)
                    if outcome is None:
                        continue
                    new_opened, new_closed = outcome
                    for target in targets:
                        stack.append(
                            (
                                target,
                                position,
                                "read",
                                new_opened,
                                new_closed,
                                steps + ((position, marker_set),),
                                visited + (target,),
                            )
                        )
            else:
                if position == n:
                    if state in self._finals and opened == closed:
                        yield EVARun(steps, visited)
                    continue
                symbol = text[position]
                for target in self._letter.get(state, {}).get(symbol, ()):
                    stack.append(
                        (target, position + 1, "capture", opened, closed, steps, visited + (target,))
                    )

    def evaluate(self, document: object) -> set[Mapping]:
        """``⟦A⟧(d)``: the set of mappings of valid accepting runs."""
        return {run.mapping() for run in self.runs(document)}

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #

    def copy(self) -> "ExtendedVA":
        """Return a deep copy of the automaton."""
        duplicate = ExtendedVA()
        for state in self._states:
            duplicate.add_state(state)
        if self._initial is not None:
            duplicate.set_initial(self._initial)
        for state in self._finals:
            duplicate.add_final(state)
        for source, label, target in self.transitions():
            if isinstance(label, MarkerSet):
                duplicate.add_variable_transition(source, label, target)
            else:
                duplicate.add_letter_transition(source, label, target)
        duplicate.declare_letters(self.declared)
        return duplicate

    def rename_states(self, naming: dict[State, State] | None = None) -> "ExtendedVA":
        """Return a copy with states renamed (default: consecutive integers)."""
        if naming is None:
            ordered = sorted(self._states, key=repr)
            naming = {state: index for index, state in enumerate(ordered)}
        renamed = ExtendedVA()
        for state in self._states:
            renamed.add_state(naming[state])
        if self._initial is not None:
            renamed.set_initial(naming[self._initial])
        for state in self._finals:
            renamed.add_final(naming[state])
        for source, label, target in self.transitions():
            if isinstance(label, MarkerSet):
                renamed.add_variable_transition(naming[source], label, naming[target])
            else:
                renamed.add_letter_transition(naming[source], label, naming[target])
        renamed.declare_letters(self.declared)
        return renamed

    def to_dot(self, name: str = "eva") -> str:
        """Render the automaton in Graphviz dot format (for documentation)."""
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for state in sorted(self._states, key=repr):
            shape = "doublecircle" if state in self._finals else "circle"
            lines.append(f'  "{state!r}" [shape={shape}];')
        if self._initial is not None:
            lines.append("  __start [shape=point];")
            lines.append(f'  __start -> "{self._initial!r}";')
        for source, label, target in self.transitions():
            lines.append(f'  "{source!r}" -> "{target!r}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExtendedVA(states={self.num_states}, transitions={self.num_transitions}, "
            f"variables={len(self.variables())})"
        )


def _apply_marker_set(
    marker_set: MarkerSet, opened: frozenset[str], closed: frozenset[str]
) -> tuple[frozenset[str], frozenset[str]] | None:
    """Apply a marker set to an (opened, closed) variable configuration.

    Returns the new configuration, or ``None`` if applying the set would
    violate validity (reuse of a marker, or closing a variable that is not
    open and not opened by the same set).
    """
    opening = marker_set.opened()
    closing = marker_set.closed()
    if opening & opened:
        return None
    if closing & closed:
        return None
    # A close is allowed when the variable is already open or opened by this
    # very set (producing an empty span).
    if not closing <= (opened | opening):
        return None
    return opened | opening, closed | closing
