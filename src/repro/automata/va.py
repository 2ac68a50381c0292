"""Classic variable-set automata (VA).

A variable-set automaton is a finite state automaton whose transitions are
either *letter transitions* ``(q, a, q')`` with ``a`` an alphabet symbol, or
*variable transitions* ``(q, m, q')`` where ``m`` is a single marker
(``x⊢`` or ``⊣x``).  Its semantics over a document is the set of mappings
produced by *valid accepting runs* (Section 2 of the paper).

This module provides the reference, run-based semantics.  It is exponential
in the worst case and exists to (a) model spanners the way the paper's
Section 2 defines them, and (b) serve as ground truth for the efficient
algorithms in :mod:`repro.enumeration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.core.documents import as_text, is_letter, read_as
from repro.core.errors import CompilationError
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.automata.markers import Marker, close, open_

__all__ = ["VariableSetAutomaton", "VARun"]

State = Hashable


@dataclass(frozen=True)
class VARun:
    """A single valid accepting run of a VA over a document.

    ``steps`` is the sequence of ``(source, label, target, position)``
    tuples, where ``label`` is either a symbol or a :class:`Marker` and
    ``position`` is the 0-based document position *before* the step.
    """

    steps: tuple[tuple[State, object, State, int], ...]

    def mapping(self) -> Mapping:
        """The mapping produced by this run."""
        opens: dict[str, int] = {}
        assignment: dict[str, Span] = {}
        for _, label, _, position in self.steps:
            if isinstance(label, Marker):
                if label.is_open:
                    opens[label.variable] = position
                else:
                    assignment[label.variable] = Span(opens.pop(label.variable), position)
        return Mapping(assignment)


class VariableSetAutomaton:
    """A variable-set automaton with single-marker variable transitions.

    States may be any hashable values.  The automaton is built imperatively
    through :meth:`add_state`, :meth:`add_letter_transition` and
    :meth:`add_variable_transition`; see :mod:`repro.automata.builders` for
    a fluent construction helper.
    """

    def __init__(self) -> None:
        self._states: set[State] = set()
        self._initial: State | None = None
        self._finals: set[State] = set()
        # state -> symbol -> set of targets
        self._letter: dict[State, dict[str, set[State]]] = {}
        # state -> marker -> set of targets
        self._variable: dict[State, dict[Marker, set[State]]] = {}
        #: Letters named without a transition (see declare_letters).
        self.declared: frozenset[str] = frozenset()

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

    def declare_letters(self, letters: Iterable[str]) -> None:
        """Name *letters* in the alphabet even if no transition reads them
        (see :meth:`repro.automata.eva.ExtendedVA.declare_letters`)."""
        self.declared |= frozenset(letters)

    def add_variable_transition(self, source: State, marker: Marker, target: State) -> None:
        """Add a variable transition ``(source, marker, target)``."""
        if not isinstance(marker, Marker):
            raise CompilationError(f"variable transitions need a Marker label, got {marker!r}")
        self.add_state(source)
        self.add_state(target)
        self._variable.setdefault(source, {}).setdefault(marker, set()).add(target)

    def add_open_transition(self, source: State, variable: str, target: State) -> None:
        """Add a transition opening *variable*."""
        self.add_variable_transition(source, open_(variable), target)

    def add_close_transition(self, source: State, variable: str, target: State) -> None:
        """Add a transition closing *variable*."""
        self.add_variable_transition(source, close(variable), target)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> frozenset[State]:
        """All states of the automaton."""
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
            for marker in per_state:
                found.add(marker.variable)
        return frozenset(found)

    def alphabet(self) -> frozenset[str]:
        """All symbols mentioned by letter transitions or declared."""
        found: set[str] = set(self.declared)
        for per_state in self._letter.values():
            found.update(per_state)
        return frozenset(found)

    def letter_targets(self, state: State, symbol: str) -> frozenset[State]:
        """Targets of letter transitions from *state* on *symbol*."""
        return frozenset(self._letter.get(state, {}).get(symbol, ()))

    def variable_targets(self, state: State, marker: Marker) -> frozenset[State]:
        """Targets of variable transitions from *state* on *marker*."""
        return frozenset(self._variable.get(state, {}).get(marker, ()))

    def letter_transitions_from(self, state: State) -> Iterator[tuple[str, State]]:
        """Iterate over ``(symbol, target)`` letter transitions from *state*."""
        for symbol, targets in self._letter.get(state, {}).items():
            for target in targets:
                yield symbol, target

    def variable_transitions_from(self, state: State) -> Iterator[tuple[Marker, State]]:
        """Iterate over ``(marker, target)`` variable transitions from *state*."""
        for marker, targets in self._variable.get(state, {}).items():
            for target in targets:
                yield marker, target

    def transitions(self) -> Iterator[tuple[State, object, State]]:
        """Iterate over all transitions as ``(source, label, target)``."""
        for source, per_symbol in self._letter.items():
            for symbol, targets in per_symbol.items():
                for target in targets:
                    yield source, symbol, target
        for source, per_marker in self._variable.items():
            for marker, targets in per_marker.items():
                for target in targets:
                    yield source, marker, target

    @property
    def num_states(self) -> int:
        """The number of states."""
        return len(self._states)

    @property
    def num_transitions(self) -> int:
        """The number of transitions (letter plus variable)."""
        return sum(1 for _ in self.transitions())

    @property
    def size(self) -> int:
        """``|A|``: number of states plus number of transitions."""
        return self.num_states + self.num_transitions

    # ------------------------------------------------------------------ #
    # Reference semantics
    # ------------------------------------------------------------------ #

    def runs(self, document: object) -> Iterator[VARun]:
        """Enumerate the valid accepting runs of the automaton over *document*.

        Invalid prefixes (marker reuse, closing an unopened variable) are
        pruned eagerly, which also guarantees termination in the presence of
        cycles of variable transitions.
        """
        text = read_as(as_text(document), self.alphabet())
        if self._initial is None:
            return

        # Depth-first search over configurations.  The per-variable status is
        # a frozenset pair (open, closed); a marker may only move a variable
        # forward (unseen -> open -> closed), so variable-transition chains
        # always terminate.
        stack: list[tuple[State, int, frozenset[str], frozenset[str], tuple]] = [
            (self._initial, 0, frozenset(), frozenset(), ())
        ]
        while stack:
            state, position, opened, closed, steps = stack.pop()
            if position == len(text) and state in self._finals and opened == closed:
                yield VARun(steps)
            # Letter transitions consume the next character.
            if position < len(text):
                symbol = text[position]
                for target in self._letter.get(state, {}).get(symbol, ()):
                    stack.append(
                        (target, position + 1, opened, closed, steps + ((state, symbol, target, position),))
                    )
            # Variable transitions stay at the same position.
            for marker, targets in self._variable.get(state, {}).items():
                variable = marker.variable
                if marker.is_open:
                    if variable in opened:
                        continue
                    new_opened, new_closed = opened | {variable}, closed
                else:
                    if variable not in opened or variable in closed:
                        continue
                    new_opened, new_closed = opened, closed | {variable}
                for target in targets:
                    stack.append(
                        (target, position, new_opened, new_closed, steps + ((state, marker, target, position),))
                    )

    def evaluate(self, document: object) -> set[Mapping]:
        """``⟦A⟧(d)``: the set of mappings of valid accepting runs."""
        return {run.mapping() for run in self.runs(document)}

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #

    def copy(self) -> "VariableSetAutomaton":
        """Return a deep copy of the automaton."""
        duplicate = VariableSetAutomaton()
        for state in self._states:
            duplicate.add_state(state)
        if self._initial is not None:
            duplicate.set_initial(self._initial)
        for state in self._finals:
            duplicate.add_final(state)
        for source, label, target in self.transitions():
            if isinstance(label, Marker):
                duplicate.add_variable_transition(source, label, target)
            else:
                duplicate.add_letter_transition(source, label, target)
        duplicate.declare_letters(self.declared)
        return duplicate

    def rename_states(self, naming: dict[State, State] | None = None) -> "VariableSetAutomaton":
        """Return a copy with states renamed (default: consecutive integers)."""
        if naming is None:
            ordered = sorted(self._states, key=repr)
            naming = {state: index for index, state in enumerate(ordered)}
        renamed = VariableSetAutomaton()
        for state in self._states:
            renamed.add_state(naming[state])
        if self._initial is not None:
            renamed.set_initial(naming[self._initial])
        for state in self._finals:
            renamed.add_final(naming[state])
        for source, label, target in self.transitions():
            if isinstance(label, Marker):
                renamed.add_variable_transition(naming[source], label, naming[target])
            else:
                renamed.add_letter_transition(naming[source], label, naming[target])
        renamed.declare_letters(self.declared)
        return renamed

    def to_dot(self, name: str = "va") -> str:
        """Render the automaton in Graphviz dot format (for documentation)."""
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for state in sorted(self._states, key=repr):
            shape = "doublecircle" if state in self._finals else "circle"
            lines.append(f'  "{state!r}" [shape={shape}];')
        if self._initial is not None:
            lines.append('  __start [shape=point];')
            lines.append(f'  __start -> "{self._initial!r}";')
        for source, label, target in self.transitions():
            text = str(label)
            lines.append(f'  "{source!r}" -> "{target!r}" [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"VariableSetAutomaton(states={self.num_states}, "
            f"transitions={self.num_transitions}, variables={len(self.variables())})"
        )

    # Late-bound convenience wrappers around the analysis module (kept as
    # methods because callers naturally ask the automaton about itself).

    def is_sequential(self) -> bool:
        """Whether every accepting run is valid (see the paper, Section 2)."""
        from repro.automata.analysis import is_sequential

        return is_sequential(self)

    def is_functional(self) -> bool:
        """Whether every accepting run is valid and uses all variables."""
        from repro.automata.analysis import is_functional

        return is_functional(self)


def make_va(
    states: Iterable[State],
    initial: State,
    finals: Iterable[State],
    letter_transitions: Iterable[tuple[State, str, State]] = (),
    variable_transitions: Iterable[tuple[State, Marker, State]] = (),
) -> VariableSetAutomaton:
    """Construct a VA from explicit component collections."""
    automaton = VariableSetAutomaton()
    for state in states:
        automaton.add_state(state)
    automaton.set_initial(initial)
    for state in finals:
        automaton.add_final(state)
    for source, symbol, target in letter_transitions:
        automaton.add_letter_transition(source, symbol, target)
    for source, marker, target in variable_transitions:
        automaton.add_variable_transition(source, marker, target)
    return automaton
