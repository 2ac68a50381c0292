"""Automata substrate: variable-set automata, extended VA, NFAs and DFAs."""

from repro.automata.eva import ExtendedVA
from repro.automata.markers import Marker, MarkerSet, close, open_
from repro.automata.va import VariableSetAutomaton
from repro._lazy import lazy_exports

# The word automata serve the Census reduction and the workloads only.
__getattr__, __dir__ = lazy_exports(globals(), {"dfa": ("DFA",), "nfa": ("NFA",)})

__all__ = [
    "DFA",
    "ExtendedVA",
    "Marker",
    "MarkerSet",
    "NFA",
    "VariableSetAutomaton",
    "close",
    "open_",
]
