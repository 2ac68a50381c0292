"""Mappings: partial assignments of spans to capture variables.

Following the paper (Section 2), the output of a document spanner is a set
of *mappings*: partial functions from variables to spans.  Unlike the tuple
semantics of Fagin et al., a mapping need not assign every variable, which
is what makes sequential (as opposed to functional) automata meaningful.

:class:`Mapping` is immutable and hashable so that spanner outputs can be
collected into Python sets and compared across evaluation algorithms, which
the test-suite does extensively.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping as TypingMapping

from repro.core.errors import SpanError
from repro.core.spans import Span

__all__ = ["Mapping"]


class Mapping:
    """An immutable partial function from variable names to :class:`Span`.

    The public constructor validates every key and value.  The arena walk
    of :mod:`repro.runtime.dag` builds its mappings with the trusted
    form instead — ``Mapping.__new__(Mapping)`` plus stores to
    ``_assignment`` (a fresh ``dict`` of variable name to :class:`Span`)
    and ``_hash = None`` — because the arena already guarantees what the
    checks test.  ``tools/check_trusted_constructors.py`` keeps that form
    out of every other module.

    >>> m = Mapping({"name": Span(0, 4), "email": Span(6, 12)})
    >>> m["name"]
    Span(0, 4)
    >>> sorted(m.domain())
    ['email', 'name']
    """

    __slots__ = ("_assignment", "_hash")

    EMPTY: "Mapping"

    def __init__(self, assignment: TypingMapping[str, Span] | Iterable[tuple[str, Span]] = ()) -> None:
        if isinstance(assignment, Mapping):
            # Already validated, and ``dict(mapping)`` would fail: a
            # Mapping iterates its variables but has no ``keys()``.
            items = dict(assignment._assignment)
        else:
            items = dict(assignment)
            for variable, span in items.items():
                if not isinstance(variable, str):
                    raise SpanError(f"variable names must be strings, got {variable!r}")
                if not isinstance(span, Span):
                    raise SpanError(
                        f"values must be Span instances, got {span!r} for {variable!r}"
                    )
        self._assignment: dict[str, Span] = items
        self._hash: int | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls) -> "Mapping":
        """The empty mapping (the paper's ``∅``)."""
        return cls.EMPTY

    @classmethod
    def single(cls, variable: str, span: Span) -> "Mapping":
        """The mapping ``[x → s]`` assigning a single variable."""
        return cls({variable: span})

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def domain(self) -> frozenset[str]:
        """The set of variables assigned by this mapping (paper: ``dom(µ)``)."""
        return frozenset(self._assignment)

    def __getitem__(self, variable: str) -> Span:
        return self._assignment[variable]

    def get(self, variable: str, default: Span | None = None) -> Span | None:
        """Return the span assigned to *variable*, or *default*."""
        return self._assignment.get(variable, default)

    def __contains__(self, variable: object) -> bool:
        return variable in self._assignment

    def __len__(self) -> int:
        return len(self._assignment)

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment)

    def items(self) -> Iterator[tuple[str, Span]]:
        """Iterate over ``(variable, span)`` pairs."""
        return iter(self._assignment.items())

    def is_total_on(self, variables: Iterable[str]) -> bool:
        """Whether every variable in *variables* is assigned."""
        return all(variable in self._assignment for variable in variables)

    def contents(self, document: object) -> dict[str, str]:
        """Return ``{variable: extracted text}`` for *document*.

        Resolves the text once, then checks and slices each span inline;
        a span past the end raises the :class:`SpanError` that
        :meth:`Span.content` raises.
        """
        if not self._assignment:
            # Nothing to extract, so *document* is never read.
            return {}
        text = document if isinstance(document, str) else getattr(document, "text")
        size = len(text)
        extracted = {}
        for variable, span in self._assignment.items():
            end = span._end
            if end > size:
                raise SpanError(f"span {span} does not fit document of length {size}")
            extracted[variable] = text[span._begin:end]
        return extracted

    # ------------------------------------------------------------------ #
    # Algebra on mappings (paper, Section 2)
    # ------------------------------------------------------------------ #

    def compatible(self, other: "Mapping") -> bool:
        """Whether the two mappings agree on their shared variables (``µ1 ∼ µ2``)."""
        small, large = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        return all(
            variable not in large._assignment or large._assignment[variable] == span
            for variable, span in small._assignment.items()
        )

    def union(self, other: "Mapping") -> "Mapping":
        """Return ``µ1 ∪ µ2``.  Requires the mappings to be compatible."""
        if not self.compatible(other):
            raise SpanError(f"cannot union incompatible mappings {self} and {other}")
        merged = dict(self._assignment)
        merged.update(other._assignment)
        return Mapping(merged)

    def restrict(self, variables: Iterable[str]) -> "Mapping":
        """Return the projection ``µ|Y`` of the mapping onto *variables*."""
        keep = set(variables)
        return Mapping(
            {v: s for v, s in self._assignment.items() if v in keep}
        )

    def drop(self, variables: Iterable[str]) -> "Mapping":
        """Return the mapping with *variables* removed from its domain."""
        remove = set(variables)
        return Mapping(
            {v: s for v, s in self._assignment.items() if v not in remove}
        )

    def rename(self, renaming: TypingMapping[str, str]) -> "Mapping":
        """Return a copy with variables renamed according to *renaming*."""
        return Mapping(
            {renaming.get(v, v): s for v, s in self._assignment.items()}
        )

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._assignment.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._assignment:
            return "Mapping({})"
        inner = ", ".join(
            f"{variable!r}: {span!r}"
            for variable, span in sorted(self._assignment.items())
        )
        return f"Mapping({{{inner}}})"

    def paper_notation(self) -> str:
        """Render the mapping with the paper's 1-based span notation."""
        if not self._assignment:
            return "{}"
        inner = ", ".join(
            f"{variable} → {span.paper_notation()}"
            for variable, span in sorted(self._assignment.items())
        )
        return f"{{{inner}}}"


Mapping.EMPTY = Mapping()
