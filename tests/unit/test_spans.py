"""Unit tests for repro.core.spans."""

import pytest

from repro.core.errors import SpanError
from repro.core.spans import Span


class TestConstruction:
    def test_valid_span(self):
        span = Span(2, 5)
        assert span.begin == 2
        assert span.end == 5
        assert len(span) == 3

    def test_empty_span(self):
        span = Span(3, 3)
        assert span.is_empty
        assert len(span) == 0

    def test_negative_begin_rejected(self):
        with pytest.raises(SpanError):
            Span(-1, 2)

    def test_end_before_begin_rejected(self):
        with pytest.raises(SpanError):
            Span(5, 2)

    def test_non_integer_rejected(self):
        with pytest.raises(SpanError):
            Span(0.5, 2)

    def test_bool_endpoints_rejected(self):
        # bool is an int subclass; Span(True, 2) used to construct and
        # print as "Span(True, 2)" while comparing equal to Span(1, 2).
        for begin, end in ((True, 2), (0, True), (False, False)):
            with pytest.raises(SpanError, match="span endpoints must be integers"):
                Span(begin, end)

    def test_zero_length_at_origin(self):
        assert Span(0, 0).is_empty


class TestContent:
    def test_content_of_string(self):
        assert Span(0, 4).content("John and Jane") == "John"

    def test_content_of_document_like(self):
        class Doc:
            text = "hello"

        assert Span(1, 3).content(Doc()) == "el"

    def test_content_empty_span(self):
        assert Span(2, 2).content("abc") == ""

    def test_content_beyond_document_raises(self):
        with pytest.raises(SpanError):
            Span(0, 10).content("abc")

    def test_fits(self):
        assert Span(0, 3).fits("abc")
        assert not Span(0, 4).fits("abc")


class TestRelations:
    def test_concatenate_adjacent(self):
        assert Span(0, 2).concatenate(Span(2, 5)) == Span(0, 5)

    def test_concatenate_non_adjacent_raises(self):
        with pytest.raises(SpanError):
            Span(0, 2).concatenate(Span(3, 5))

    def test_contains(self):
        assert Span(0, 10).contains(Span(3, 5))
        assert not Span(3, 5).contains(Span(0, 10))
        assert Span(3, 5).contains(Span(3, 5))

    def test_overlaps(self):
        assert Span(0, 5).overlaps(Span(4, 8))
        assert not Span(0, 4).overlaps(Span(4, 8))

    def test_precedes(self):
        assert Span(0, 4).precedes(Span(4, 8))
        assert not Span(0, 5).precedes(Span(4, 8))

    def test_shift(self):
        assert Span(1, 3).shift(10) == Span(11, 13)


class TestConversions:
    def test_paper_round_trip(self):
        span = Span.from_paper(1, 5)
        assert span == Span(0, 4)
        assert span.to_paper() == (1, 5)

    def test_paper_notation(self):
        assert Span(0, 4).paper_notation() == "[1, 5⟩"

    def test_from_paper_invalid(self):
        with pytest.raises(SpanError):
            Span.from_paper(0, 3)

    def test_as_slice(self):
        assert "abcdef"[Span(1, 4).as_slice()] == "bcd"

    def test_positions(self):
        assert list(Span(2, 5).positions()) == [2, 3, 4]

    def test_unpacking(self):
        begin, end = Span(3, 7)
        assert (begin, end) == (3, 7)


class TestOrderingAndHashing:
    def test_equality(self):
        assert Span(1, 2) == Span(1, 2)
        assert Span(1, 2) != Span(1, 3)
        assert Span(1, 2) != "not a span"

    def test_total_order(self):
        assert Span(0, 5) < Span(1, 2)
        assert Span(1, 2) < Span(1, 3)
        assert Span(1, 3) <= Span(1, 3)
        assert Span(2, 3) > Span(1, 9)
        assert Span(2, 3) >= Span(2, 3)

    def test_hashable(self):
        assert len({Span(0, 1), Span(0, 1), Span(1, 2)}) == 2

    def test_sorting(self):
        spans = [Span(2, 3), Span(0, 5), Span(0, 2)]
        assert sorted(spans) == [Span(0, 2), Span(0, 5), Span(2, 3)]

    def test_repr(self):
        assert repr(Span(1, 4)) == "Span(1, 4)"
