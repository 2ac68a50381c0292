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
    of :mod:`repro.runtime.dag` builds its mappings with the trusted,
    *undecoded* form instead — ``Mapping.__new__(Mapping)`` plus stores
    ``_assignment = None``, ``_path`` (the walk's parent-pointer chain of
    ``(marker_set_id, position, parent)`` labels, ending in ``()``),
    ``_tables`` (the call's ``(opens_by_set, closes_by_set,
    document_length)``) and ``_hash = None`` — because the arena already
    guarantees what the checks test.  ``tools/check_trusted_constructors.py``
    keeps that form out of every other module.

    An undecoded mapping is decoded only when it is read.  :meth:`contents`
    slices the text straight from the path, building no :class:`Span` and
    no assignment dict.  Every other reader decodes the path once into the
    ``{variable: Span}`` dict the public constructor would hold (spans
    built by the trusted ``Span.__new__`` form), stores it and drops the
    path, so no reader can tell the two forms apart.

    >>> m = Mapping({"name": Span(0, 4), "email": Span(6, 12)})
    >>> m["name"]
    Span(0, 4)
    >>> sorted(m.domain())
    ['email', 'name']
    """

    __slots__ = ("_assignment", "_hash", "_path", "_tables")

    EMPTY: "Mapping"

    def __init__(self, assignment: TypingMapping[str, Span] | Iterable[tuple[str, Span]] = ()) -> None:
        if isinstance(assignment, Mapping):
            # Already validated, and ``dict(mapping)`` would fail: a
            # Mapping iterates its variables but has no ``keys()``.
            items = dict(assignment._assignment or assignment._decoded())
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

    def _decoded(self) -> dict[str, Span]:
        """The ``{variable: Span}`` dict, decoding an undecoded mapping once.

        Readers call this only when ``_assignment`` is falsy: undecoded
        (``None``) or an empty dict, returned as is.  The path runs in
        increasing position order, so variables enter the dict in the
        order their captures close.  ``_assignment`` is stored before
        ``_path`` is dropped, so a thread that finds the path gone finds
        the dict set.
        """
        assignment = self._assignment
        if assignment is not None:
            return assignment
        path = self._path
        if path is None:
            # Decoded meanwhile by another thread.
            return self._assignment
        opens_by_set, closes_by_set, _length = self._tables
        new_span = Span.__new__
        opens: dict[str, int] = {}
        assignment = {}
        while path:
            set_id, position, path = path
            for variable in opens_by_set[set_id]:
                opens[variable] = position
            for variable in closes_by_set[set_id]:
                span = new_span(Span)
                span._begin = opens.pop(variable)
                span._end = position
                assignment[variable] = span
        self._assignment = assignment
        self._path = None
        return assignment

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def domain(self) -> frozenset[str]:
        """The set of variables assigned by this mapping (paper: ``dom(µ)``)."""
        return frozenset(self._assignment or self._decoded())

    def __getitem__(self, variable: str) -> Span:
        return (self._assignment or self._decoded())[variable]

    def get(self, variable: str, default: Span | None = None) -> Span | None:
        """Return the span assigned to *variable*, or *default*."""
        return (self._assignment or self._decoded()).get(variable, default)

    def __contains__(self, variable: object) -> bool:
        return variable in (self._assignment or self._decoded())

    def __len__(self) -> int:
        return len(self._assignment or self._decoded())

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment or self._decoded())

    def items(self) -> Iterator[tuple[str, Span]]:
        """Iterate over ``(variable, span)`` pairs."""
        return iter((self._assignment or self._decoded()).items())

    def is_total_on(self, variables: Iterable[str]) -> bool:
        """Whether every variable in *variables* is assigned."""
        assignment = self._assignment or self._decoded()
        return all(variable in assignment for variable in variables)

    def contents(self, document: object) -> dict[str, str]:
        """Return ``{variable: extracted text}`` for *document*.

        Resolves the text once, then slices each capture inline.  An
        undecoded mapping is sliced straight from its path: no
        :class:`Span` and no assignment dict is built, and the mapping
        stays undecoded.  A span past the end raises the
        :class:`SpanError` that :meth:`Span.content` raises.
        """
        assignment = self._assignment
        if assignment is None:
            path = self._path
            if path is not None:
                opens_by_set, closes_by_set, length = self._tables
                opens: dict[str, int] = {}
                # Up to the first close: a run that closes nothing is an
                # empty mapping, and *document* is never read.
                while path and not closes_by_set[path[0]]:
                    set_id, position, path = path
                    for variable in opens_by_set[set_id]:
                        opens[variable] = position
                if not path:
                    return {}
                text = document if isinstance(document, str) else getattr(document, "text")
                if len(text) >= length:
                    # No position on the path exceeds the arena's document
                    # length, so every slice fits.  Otherwise the checked
                    # loop below raises as it always has.
                    extracted = {}
                    while path:
                        set_id, position, path = path
                        for variable in opens_by_set[set_id]:
                            opens[variable] = position
                        for variable in closes_by_set[set_id]:
                            extracted[variable] = text[opens.pop(variable):position]
                    return extracted
            assignment = self._decoded()
        if not assignment:
            # Nothing to extract, so *document* is never read.
            return {}
        text = document if isinstance(document, str) else getattr(document, "text")
        size = len(text)
        extracted = {}
        for variable, span in assignment.items():
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
        large_assignment = large._assignment or large._decoded()
        return all(
            variable not in large_assignment or large_assignment[variable] == span
            for variable, span in small.items()
        )

    def union(self, other: "Mapping") -> "Mapping":
        """Return ``µ1 ∪ µ2``.  Requires the mappings to be compatible."""
        if not self.compatible(other):
            raise SpanError(f"cannot union incompatible mappings {self} and {other}")
        merged = dict(self._assignment or self._decoded())
        merged.update(other._assignment or other._decoded())
        return Mapping(merged)

    def restrict(self, variables: Iterable[str]) -> "Mapping":
        """Return the projection ``µ|Y`` of the mapping onto *variables*."""
        keep = set(variables)
        return Mapping({v: s for v, s in self.items() if v in keep})

    def drop(self, variables: Iterable[str]) -> "Mapping":
        """Return the mapping with *variables* removed from its domain."""
        remove = set(variables)
        return Mapping({v: s for v, s in self.items() if v not in remove})

    def rename(self, renaming: TypingMapping[str, str]) -> "Mapping":
        """Return a copy with variables renamed according to *renaming*."""
        return Mapping({renaming.get(v, v): s for v, s in self.items()})

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (self._assignment or self._decoded()) == (
            other._assignment or other._decoded()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset((self._assignment or self._decoded()).items()))
        return self._hash

    def __reduce__(self):
        # ``copy`` and ``pickle`` carry the decoded dict, never the path.
        return (Mapping, (self._assignment or self._decoded(),))

    def __repr__(self) -> str:
        assignment = self._assignment or self._decoded()
        if not assignment:
            return "Mapping({})"
        inner = ", ".join(
            f"{variable!r}: {span!r}" for variable, span in sorted(assignment.items())
        )
        return f"Mapping({{{inner}}})"

    def paper_notation(self) -> str:
        """Render the mapping with the paper's 1-based span notation."""
        assignment = self._assignment or self._decoded()
        if not assignment:
            return "{}"
        inner = ", ".join(
            f"{variable} → {span.paper_notation()}"
            for variable, span in sorted(assignment.items())
        )
        return f"{{{inner}}}"


Mapping.EMPTY = Mapping()
