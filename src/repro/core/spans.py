"""Spans: contiguous regions of a document.

The paper models a span as a pair ``[i, j⟩`` of 1-based positions with
``1 ≤ i ≤ j ≤ |d| + 1``; its content is the substring from position ``i``
to ``j - 1``.  This library uses the equivalent, Python-friendly 0-based
half-open convention: a :class:`Span` is a pair ``(begin, end)`` with
``0 ≤ begin ≤ end`` and content ``d[begin:end]``.  The helper
:meth:`Span.paper_notation` renders the 1-based form used in the paper's
figures, which the integration tests rely on to reproduce Figure 1 exactly.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import SpanError

__all__ = ["Span"]


class Span:
    """A half-open interval ``[begin, end)`` over document positions.

    Spans are immutable, hashable and totally ordered (lexicographically by
    ``(begin, end)``), so they can be used as dictionary keys, stored in
    sets, and sorted to produce deterministic output orders.

    The public constructor validates its endpoints (``bool`` is rejected
    although it is an ``int`` subclass).  An undecoded mapping from the
    arena walk of :mod:`repro.runtime.dag` builds its spans with the
    trusted form instead — ``Span.__new__(Span)`` plus stores to
    ``_begin`` and ``_end`` — when a reader first decodes it
    (:class:`~repro.core.mappings.Mapping`), because the arena already
    guarantees integer endpoints with ``0 ≤ begin ≤ end ≤ |d|``.
    :meth:`Mapping.contents <repro.core.mappings.Mapping.contents>`
    builds no span at all: it slices the text from the walk's path.
    ``tools/check_trusted_constructors.py`` keeps the trusted form out of
    every other module.

    >>> s = Span(0, 4)
    >>> s.content("John and Jane")
    'John'
    >>> s.paper_notation()
    '[1, 5⟩'
    """

    __slots__ = ("_begin", "_end")

    def __init__(self, begin: int, end: int) -> None:
        if (
            not isinstance(begin, int)
            or not isinstance(end, int)
            or isinstance(begin, bool)
            or isinstance(end, bool)
        ):
            raise SpanError(f"span endpoints must be integers, got ({begin!r}, {end!r})")
        if begin < 0:
            raise SpanError(f"span begin must be non-negative, got {begin}")
        if end < begin:
            raise SpanError(f"span end must be >= begin, got [{begin}, {end})")
        self._begin = begin
        self._end = end

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def begin(self) -> int:
        """The 0-based position of the first character covered by the span."""
        return self._begin

    @property
    def end(self) -> int:
        """The 0-based position one past the last character covered."""
        return self._end

    def __len__(self) -> int:
        return self._end - self._begin

    @property
    def is_empty(self) -> bool:
        """Whether the span covers no characters (``begin == end``)."""
        return self._begin == self._end

    def content(self, document: object) -> str:
        """Return the substring of *document* covered by this span.

        *document* may be a plain string or anything exposing a ``text``
        attribute (such as :class:`repro.core.documents.Document`).
        """
        text = document if isinstance(document, str) else getattr(document, "text")
        if self._end > len(text):
            raise SpanError(
                f"span {self} does not fit document of length {len(text)}"
            )
        return text[self._begin:self._end]

    def fits(self, document: object) -> bool:
        """Whether the span lies inside *document*."""
        text = document if isinstance(document, str) else getattr(document, "text")
        return self._end <= len(text)

    # ------------------------------------------------------------------ #
    # Relations between spans
    # ------------------------------------------------------------------ #

    def concatenate(self, other: "Span") -> "Span":
        """Concatenate two adjacent spans (paper: ``s1 · s2``).

        Requires ``self.end == other.begin``.
        """
        if self._end != other._begin:
            raise SpanError(f"cannot concatenate non-adjacent spans {self} and {other}")
        return Span(self._begin, other._end)

    def contains(self, other: "Span") -> bool:
        """Whether *other* lies entirely inside this span."""
        return self._begin <= other._begin and other._end <= self._end

    def overlaps(self, other: "Span") -> bool:
        """Whether the two spans share at least one character position."""
        return self._begin < other._end and other._begin < self._end

    def precedes(self, other: "Span") -> bool:
        """Whether this span ends before (or exactly where) *other* begins."""
        return self._end <= other._begin

    def shift(self, offset: int) -> "Span":
        """Return a copy of the span translated by *offset* positions."""
        return Span(self._begin + offset, self._end + offset)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_paper(cls, i: int, j: int) -> "Span":
        """Build a span from the paper's 1-based ``[i, j⟩`` notation."""
        if i < 1 or j < i:
            raise SpanError(f"invalid paper span [{i}, {j}⟩")
        return cls(i - 1, j - 1)

    def to_paper(self) -> tuple[int, int]:
        """Return the 1-based pair ``(i, j)`` used in the paper."""
        return (self._begin + 1, self._end + 1)

    def paper_notation(self) -> str:
        """Render the span as the paper writes it, e.g. ``'[1, 5⟩'``."""
        i, j = self.to_paper()
        return f"[{i}, {j}⟩"

    def as_slice(self) -> slice:
        """Return the equivalent Python ``slice`` object."""
        return slice(self._begin, self._end)

    def positions(self) -> Iterator[int]:
        """Iterate over the character positions covered by the span."""
        return iter(range(self._begin, self._end))

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self._begin == other._begin and self._end == other._end

    def __lt__(self, other: "Span") -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self._begin, self._end) < (other._begin, other._end)

    def __le__(self, other: "Span") -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self._begin, self._end) <= (other._begin, other._end)

    def __gt__(self, other: "Span") -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self._begin, self._end) > (other._begin, other._end)

    def __ge__(self, other: "Span") -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self._begin, self._end) >= (other._begin, other._end)

    def __hash__(self) -> int:
        return hash((self._begin, self._end))

    def __iter__(self) -> Iterator[int]:
        # Allows ``begin, end = span`` unpacking.
        yield self._begin
        yield self._end

    def __repr__(self) -> str:
        return f"Span({self._begin}, {self._end})"
