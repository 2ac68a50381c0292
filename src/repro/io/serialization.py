"""JSON (de)serialization of automata and mappings.

Compiling a spanner into a deterministic sequential eVA can dominate the
cost of small evaluation jobs, so being able to persist a compiled automaton
and reload it later is a practical necessity.  The format is plain JSON:

.. code-block:: json

    {
      "kind": "eva",
      "states": [0, 1],
      "initial": 0,
      "finals": [1],
      "letter_transitions": [[0, "a", 1]],
      "variable_transitions": [[0, [["x", "open"]], 1]]
    }

States are serialized as-is when they are JSON representable (ints or
strings); automata produced by the compilation pipeline always have integer
states (see :func:`repro.automata.transforms.relabel_states`).
"""

from __future__ import annotations

import json
import os
from typing import Mapping as TypingMapping

from repro.core.errors import ReproError
from repro.core.mappings import Mapping
from repro.automata.eva import ExtendedVA
from repro.automata.markers import Marker, MarkerSet
from repro.automata.va import VariableSetAutomaton

__all__ = [
    "va_to_dict",
    "va_from_dict",
    "eva_to_dict",
    "eva_from_dict",
    "expression_to_dict",
    "expression_from_dict",
    "save_automaton",
    "load_automaton",
    "mapping_to_dict",
]


class SerializationError(ReproError, ValueError):
    """Raised when an automaton document cannot be (de)serialized."""


def _check_state(state: object) -> object:
    if not isinstance(state, (int, str)):
        raise SerializationError(
            f"only automata with int or str states can be serialized, got {state!r}; "
            "apply repro.automata.transforms.relabel_states first"
        )
    return state


def _marker_to_json(marker: Marker) -> list:
    return [marker.variable, "open" if marker.is_open else "close"]


def _marker_from_json(payload: object) -> Marker:
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise SerializationError(f"malformed marker {payload!r}")
    variable, kind = payload
    if kind not in ("open", "close"):
        raise SerializationError(f"malformed marker kind {kind!r}")
    return Marker(variable, kind == "open")


# ---------------------------------------------------------------------- #
# Classic VA
# ---------------------------------------------------------------------- #


def va_to_dict(automaton: VariableSetAutomaton) -> dict:
    """Serialize a classic VA into a JSON-compatible dictionary."""
    letter, variable = [], []
    for source, label, target in automaton.transitions():
        if isinstance(label, Marker):
            variable.append([_check_state(source), _marker_to_json(label), _check_state(target)])
        else:
            letter.append([_check_state(source), label, _check_state(target)])
    return {
        "kind": "va",
        "states": sorted((_check_state(s) for s in automaton.states), key=repr),
        "initial": _check_state(automaton.initial),
        "finals": sorted((_check_state(s) for s in automaton.finals), key=repr),
        "letter_transitions": letter,
        "variable_transitions": variable,
        "declared": sorted(automaton.declared),
    }


def va_from_dict(payload: TypingMapping) -> VariableSetAutomaton:
    """Rebuild a classic VA from :func:`va_to_dict` output."""
    if payload.get("kind") != "va":
        raise SerializationError(f"expected kind 'va', got {payload.get('kind')!r}")
    automaton = VariableSetAutomaton()
    for state in payload.get("states", []):
        automaton.add_state(state)
    automaton.set_initial(payload["initial"])
    for state in payload.get("finals", []):
        automaton.add_final(state)
    for source, symbol, target in payload.get("letter_transitions", []):
        automaton.add_letter_transition(source, symbol, target)
    for source, marker, target in payload.get("variable_transitions", []):
        automaton.add_variable_transition(source, _marker_from_json(marker), target)
    automaton.declare_letters(payload.get("declared", ()))
    return automaton


# ---------------------------------------------------------------------- #
# Extended VA
# ---------------------------------------------------------------------- #


def eva_to_dict(automaton: ExtendedVA) -> dict:
    """Serialize an extended VA into a JSON-compatible dictionary."""
    letter, variable = [], []
    for source, label, target in automaton.transitions():
        if isinstance(label, MarkerSet):
            variable.append(
                [
                    _check_state(source),
                    [_marker_to_json(marker) for marker in label.canonical_order()],
                    _check_state(target),
                ]
            )
        else:
            letter.append([_check_state(source), label, _check_state(target)])
    return {
        "kind": "eva",
        "states": sorted((_check_state(s) for s in automaton.states), key=repr),
        "initial": _check_state(automaton.initial),
        "finals": sorted((_check_state(s) for s in automaton.finals), key=repr),
        "letter_transitions": letter,
        "variable_transitions": variable,
        "declared": sorted(automaton.declared),
    }


def eva_from_dict(payload: TypingMapping) -> ExtendedVA:
    """Rebuild an extended VA from :func:`eva_to_dict` output."""
    if payload.get("kind") != "eva":
        raise SerializationError(f"expected kind 'eva', got {payload.get('kind')!r}")
    automaton = ExtendedVA()
    for state in payload.get("states", []):
        automaton.add_state(state)
    automaton.set_initial(payload["initial"])
    for state in payload.get("finals", []):
        automaton.add_final(state)
    for source, symbol, target in payload.get("letter_transitions", []):
        automaton.add_letter_transition(source, symbol, target)
    for source, markers, target in payload.get("variable_transitions", []):
        marker_set = MarkerSet(_marker_from_json(marker) for marker in markers)
        automaton.add_variable_transition(source, marker_set, target)
    automaton.declare_letters(payload.get("declared", ()))
    return automaton


# ---------------------------------------------------------------------- #
# Spanner-algebra expressions
# ---------------------------------------------------------------------- #


def expression_to_dict(expression) -> dict:
    """Serialize a :class:`~repro.algebra.expressions.SpannerExpression`.

    The tree structure maps one-to-one onto nested dictionaries; atoms
    embed their source either as a regex pattern (``str(ast)`` renders the
    concrete syntax the parser accepts, so the round trip is exact) or as
    a :func:`va_to_dict` / :func:`eva_to_dict` automaton document.  This is
    the form the batch engine can use to ship expression-backed spanners
    to workers that do not share memory with the parent.
    """
    from repro.algebra.expressions import Atom, Join, Projection, UnionExpr
    from repro.regex.ast import RegexNode

    if isinstance(expression, Atom):
        source = expression.source
        if isinstance(source, RegexNode):
            payload: dict = {"kind": "regex", "pattern": str(source)}
        elif isinstance(source, ExtendedVA):
            payload = eva_to_dict(source)
        elif isinstance(source, VariableSetAutomaton):
            payload = va_to_dict(source)
        else:
            raise SerializationError(f"cannot serialize atom source {source!r}")
        return {"kind": "expression", "op": "atom", "source": payload}
    if isinstance(expression, Projection):
        return {
            "kind": "expression",
            "op": "project",
            "keep": sorted(expression.keep),
            "child": expression_to_dict(expression.child),
        }
    if isinstance(expression, (UnionExpr, Join)):
        return {
            "kind": "expression",
            "op": "union" if isinstance(expression, UnionExpr) else "join",
            "left": expression_to_dict(expression.left),
            "right": expression_to_dict(expression.right),
        }
    raise SerializationError(f"cannot serialize expression {expression!r}")


def expression_from_dict(payload: TypingMapping):
    """Rebuild a spanner-algebra expression from :func:`expression_to_dict`."""
    from repro.algebra.expressions import Atom, Join, Projection, UnionExpr
    from repro.regex.parser import parse_regex

    if payload.get("kind") != "expression":
        raise SerializationError(
            f"expected kind 'expression', got {payload.get('kind')!r}"
        )
    op = payload.get("op")
    if op == "atom":
        source = payload["source"]
        kind = source.get("kind")
        if kind == "regex":
            return Atom(parse_regex(source["pattern"]))
        if kind == "eva":
            return Atom(eva_from_dict(source))
        if kind == "va":
            return Atom(va_from_dict(source))
        raise SerializationError(f"unknown atom source kind {kind!r}")
    if op == "project":
        return Projection(expression_from_dict(payload["child"]), payload["keep"])
    if op in ("union", "join"):
        left = expression_from_dict(payload["left"])
        right = expression_from_dict(payload["right"])
        return UnionExpr(left, right) if op == "union" else Join(left, right)
    raise SerializationError(f"unknown expression op {op!r}")


# ---------------------------------------------------------------------- #
# Files and mappings
# ---------------------------------------------------------------------- #


def save_automaton(
    automaton: VariableSetAutomaton | ExtendedVA, path: str | os.PathLike
) -> None:
    """Serialize *automaton* to a JSON file."""
    if isinstance(automaton, ExtendedVA):
        payload = eva_to_dict(automaton)
    elif isinstance(automaton, VariableSetAutomaton):
        payload = va_to_dict(automaton)
    else:
        raise SerializationError(f"cannot serialize {automaton!r}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_automaton(path: str | os.PathLike) -> VariableSetAutomaton | ExtendedVA:
    """Load an automaton previously written by :func:`save_automaton`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    kind = payload.get("kind")
    if kind == "va":
        return va_from_dict(payload)
    if kind == "eva":
        return eva_from_dict(payload)
    raise SerializationError(f"unknown automaton kind {kind!r}")


def mapping_to_dict(mapping: Mapping, document: object | None = None) -> dict:
    """Serialize a mapping (optionally with the extracted text) to a dictionary."""
    payload: dict = {
        variable: {"begin": span.begin, "end": span.end}
        for variable, span in mapping.items()
    }
    if document is not None:
        for variable, span in mapping.items():
            payload[variable]["text"] = span.content(document)
    return payload
