"""Naive baseline: materialize all runs, deduplicate, then emit.

This is what an implementation without the paper's machinery would do:
search every valid accepting run of the automaton (exponentially many in
the worst case), collect the mappings into a set to remove duplicates, and
only then start producing output.  Both its total running time and its
time-to-first-output grow with the number of runs, which is exactly the
behaviour the constant-delay algorithm avoids.  The tier-1 tests use it
as an oracle.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.mappings import Mapping
from repro.automata.eva import ExtendedVA
from repro.automata.va import VariableSetAutomaton

__all__ = ["NaiveEnumerator", "naive_evaluate"]


class NaiveEnumerator:
    """Run-materializing evaluator for VA and extended VA."""

    def __init__(self, automaton: VariableSetAutomaton | ExtendedVA) -> None:
        if not isinstance(automaton, (VariableSetAutomaton, ExtendedVA)):
            raise TypeError(f"expected a VA or extended VA, got {automaton!r}")
        self._automaton = automaton

    @property
    def automaton(self) -> VariableSetAutomaton | ExtendedVA:
        """The automaton being evaluated."""
        return self._automaton

    def evaluate(self, document: object) -> set[Mapping]:
        """Return ``⟦A⟧(d)`` as a materialized set of mappings."""
        return self._automaton.evaluate(document)

    def enumerate(self, document: object) -> Iterator[Mapping]:
        """Enumerate ``⟦A⟧(d)`` after materializing it completely.

        Unlike the constant-delay enumerator there is no bounded-delay
        guarantee: the first output only appears after every run has been
        explored.
        """
        yield from self.evaluate(document)

    def count(self, document: object) -> int:
        """Count outputs by materializing them (baseline for Theorem 5.1)."""
        return len(self.evaluate(document))


def naive_evaluate(
    automaton: VariableSetAutomaton | ExtendedVA, document: object
) -> set[Mapping]:
    """Convenience wrapper around :class:`NaiveEnumerator`."""
    return NaiveEnumerator(automaton).evaluate(document)
