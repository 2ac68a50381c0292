"""Regex formulas (RGX): syntax, parsing, semantics and compilation."""

from repro.regex.ast import (
    AnyChar,
    Capture,
    CharClass,
    Concat,
    Epsilon,
    Literal,
    Optional,
    Plus,
    RegexNode,
    Star,
    Union,
)
from repro.regex.compiler import compile_to_va
from repro.regex.parser import parse_regex
from repro._lazy import lazy_exports

# The reference semantics is an oracle for tests, not a request path.
__getattr__, __dir__ = lazy_exports(globals(), {"semantics": ("evaluate_regex",)})

__all__ = [
    "AnyChar",
    "Capture",
    "CharClass",
    "Concat",
    "Epsilon",
    "Literal",
    "Optional",
    "Plus",
    "RegexNode",
    "Star",
    "Union",
    "compile_to_va",
    "evaluate_regex",
    "parse_regex",
]
