"""The Census problem and the reduction of Theorem 5.2.

The *Census problem* asks, given an NFA ``B`` and a length ``n``, how many
distinct words of length ``n`` the NFA accepts.  Theorem 5.2 shows that
counting the outputs of a functional VA is SpanL-complete by reducing
Census to it parsimoniously: the reduction builds a functional VA
``A_{B,n}`` and a document ``d_{B,n}`` such that ``|⟦A_{B,n}⟧(d_{B,n})|``
equals the Census count.

The construction below generalizes the paper's two-letter alphabet to any
finite alphabet: position ``i`` of a candidate word is encoded by one
document block ``"#" + "c" * |Σ|`` and the symbol chosen at that position
by which ``c`` of the block the capture variable ``x_i`` wraps.

This module provides the reduction itself, a ground-truth Census solver
(dynamic programming over the determinized NFA), and a convenience wrapper
that solves Census *through* the spanner counting machinery — the
round-trip the property-based tests verify to be parsimonious.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.documents import Document
from repro.automata.nfa import NFA
from repro.automata.va import VariableSetAutomaton

__all__ = ["CensusInstance", "census_count", "census_to_spanner"]


def census_count(nfa: NFA, length: int) -> int:
    """Ground truth: the number of distinct words of *length* accepted by *nfa*.

    Computed by determinizing the NFA and counting paths by dynamic
    programming, so every accepted word is counted exactly once.
    """
    return nfa.count_words_of_length(length)


def census_to_spanner(nfa: NFA, length: int) -> tuple[VariableSetAutomaton, Document]:
    """The parsimonious reduction of Theorem 5.2.

    Returns a functional VA ``A_{B,n}`` and a document ``d_{B,n}`` such
    that the number of output mappings equals the Census count of
    ``(nfa, length)``.
    """
    alphabet = sorted(nfa.alphabet())
    k = len(alphabet)
    if k == 0:
        # An NFA without letter transitions accepts at most the empty word.
        alphabet = ["a"]
        k = 1
    symbol_index = {symbol: index for index, symbol in enumerate(alphabet)}

    document = Document(("#" + "c" * k) * length)

    automaton = VariableSetAutomaton()
    automaton.set_initial(("level", nfa.initial, 0))
    for final in nfa.finals:
        automaton.add_final(("level", final, length))

    if length == 0:
        # The empty word is accepted exactly when the ε-closure of the
        # initial state contains a final state.
        if nfa.epsilon_closure({nfa.initial}) & nfa.finals:
            automaton.add_final(("level", nfa.initial, 0))
        return automaton, document

    # ε-transitions of the NFA do not consume a word position; they are
    # compiled away by working on the ε-closure relation.
    def closure_targets(state) -> frozenset:
        return nfa.epsilon_closure({state})

    for level in range(1, length + 1):
        variable = f"x{level}"
        for source, label, target in nfa.transitions():
            if label is None:
                continue
            offset = symbol_index[label]
            # The gadget reads:  '#'  'c'*offset  x⊢  'c'  ⊣x  'c'*(k-1-offset)
            for origin in _origins(nfa, source):
                start = ("level", origin, level - 1)
                previous = start
                step = 0
                for symbol in "#" + "c" * offset:
                    nxt = ("gadget", origin, source, label, target, level, step)
                    automaton.add_letter_transition(previous, symbol, nxt)
                    previous = nxt
                    step += 1
                opened = ("gadget", origin, source, label, target, level, step)
                automaton.add_open_transition(previous, variable, opened)
                previous = opened
                step += 1
                read_c = ("gadget", origin, source, label, target, level, step)
                automaton.add_letter_transition(previous, "c", read_c)
                previous = read_c
                step += 1
                remaining = k - 1 - offset
                if remaining == 0:
                    # Close the variable and land on the level state of the
                    # ε-closure of the NFA target.
                    for landing in closure_targets(target):
                        automaton.add_close_transition(
                            previous, variable, ("level", landing, level)
                        )
                else:
                    closed = ("gadget", origin, source, label, target, level, step)
                    automaton.add_close_transition(previous, variable, closed)
                    previous = closed
                    step += 1
                    for index in range(remaining):
                        if index == remaining - 1:
                            for landing in closure_targets(target):
                                automaton.add_letter_transition(
                                    previous, "c", ("level", landing, level)
                                )
                        else:
                            nxt = ("gadget", origin, source, label, target, level, step)
                            automaton.add_letter_transition(previous, "c", nxt)
                            previous = nxt
                            step += 1
    return automaton, document


def _origins(nfa: NFA, state) -> frozenset:
    """States whose ε-closure contains *state* (including *state* itself).

    A word-position transition of the reduction may start from any state
    that can silently reach the source of the NFA transition.
    """
    origins = {state}
    for candidate in nfa.states:
        if state in nfa.epsilon_closure({candidate}):
            origins.add(candidate)
    return frozenset(origins)


@dataclass(frozen=True)
class CensusInstance:
    """A Census instance ``(B, n)`` with solvers at different abstraction levels."""

    nfa: NFA
    length: int

    def solve_directly(self) -> int:
        """Solve by dynamic programming over the determinized NFA."""
        return census_count(self.nfa, self.length)

    def solve_by_enumeration(self) -> int:
        """Solve by brute-force enumeration of the accepted words."""
        return sum(1 for _ in self.nfa.accepted_words(self.length))

    def to_spanner(self) -> tuple[VariableSetAutomaton, Document]:
        """Materialize the Theorem 5.2 reduction."""
        return census_to_spanner(self.nfa, self.length)

    def solve_via_spanner(self) -> int:
        """Solve by counting the outputs of the reduction's spanner.

        The automaton is compiled to a deterministic sequential eVA and
        counted with Algorithm 3, exercising the full pipeline the paper
        describes (and paying the determinization cost that Theorem 5.2
        says cannot be avoided in general).
        """
        from repro.automata.transforms import to_deterministic_sequential_eva
        from repro.counting.count import count_mappings

        automaton, document = self.to_spanner()
        deterministic = to_deterministic_sequential_eva(automaton, assume_sequential=True)
        return count_mappings(deterministic, document)

    def solve_via_compiled_spanner(self, *, repeat: int = 1) -> int:
        """Solve through the compiled runtime's integer Algorithm 3.

        The same reduction as :meth:`solve_via_spanner`, but counted by
        :func:`repro.runtime.engine.count_compiled` on the lazily
        determinized automaton, *repeat* times on one instance — the
        steady-state shape of the census benchmark (compile once, count
        many times on the subsets and set plans the first pass built).
        """
        from repro.automata.analysis import trim
        from repro.automata.transforms import va_to_eva
        from repro.runtime.engine import count_compiled
        from repro.runtime.subset import CompiledSubsetEVA

        automaton, document = self.to_spanner()
        compiled = CompiledSubsetEVA(trim(va_to_eva(automaton)))
        total = 0
        for _ in range(max(1, repeat)):
            total = count_compiled(compiled, document)
        return total
