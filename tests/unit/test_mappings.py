"""Unit tests for repro.core.mappings."""

import pytest

from repro.core.documents import Document
from repro.core.errors import SpanError
from repro.core.mappings import Mapping
from repro.core.spans import Span


class TestConstruction:
    def test_empty_mapping(self):
        assert len(Mapping()) == 0
        assert Mapping().domain() == frozenset()

    def test_empty_singleton(self):
        assert Mapping.empty() == Mapping({})
        assert Mapping.EMPTY == Mapping()

    def test_single(self):
        mapping = Mapping.single("x", Span(0, 3))
        assert mapping["x"] == Span(0, 3)
        assert mapping.domain() == frozenset({"x"})

    def test_from_dict(self):
        mapping = Mapping({"a": Span(0, 1), "b": Span(1, 2)})
        assert len(mapping) == 2

    def test_from_pairs(self):
        mapping = Mapping([("a", Span(0, 1))])
        assert mapping["a"] == Span(0, 1)

    def test_from_mapping(self):
        # Mapping has no keys(), so dict(Mapping(...)) used to raise
        # "dictionary update sequence element #0 has length 1".
        original = Mapping({"x": Span(0, 1), "y": Span(1, 3)})
        copy = Mapping(original)
        assert copy == original
        assert hash(copy) == hash(original)
        assert list(copy) == ["x", "y"]
        assert copy._assignment is not original._assignment

    def test_invalid_variable_name(self):
        with pytest.raises(SpanError):
            Mapping({1: Span(0, 1)})

    def test_invalid_span_value(self):
        with pytest.raises(SpanError):
            Mapping({"x": (0, 1)})


class TestAccessors:
    def test_get_with_default(self):
        mapping = Mapping({"x": Span(0, 1)})
        assert mapping.get("x") == Span(0, 1)
        assert mapping.get("y") is None
        assert mapping.get("y", Span(9, 9)) == Span(9, 9)

    def test_contains(self):
        mapping = Mapping({"x": Span(0, 1)})
        assert "x" in mapping
        assert "y" not in mapping

    def test_iteration(self):
        mapping = Mapping({"x": Span(0, 1), "y": Span(2, 3)})
        assert set(mapping) == {"x", "y"}
        assert dict(mapping.items()) == {"x": Span(0, 1), "y": Span(2, 3)}

    def test_is_total_on(self):
        mapping = Mapping({"x": Span(0, 1), "y": Span(2, 3)})
        assert mapping.is_total_on(["x", "y"])
        assert mapping.is_total_on(["x"])
        assert not mapping.is_total_on(["x", "z"])

    def test_contents(self):
        mapping = Mapping({"name": Span(0, 4)})
        assert mapping.contents("John Doe") == {"name": "John"}

    def test_contents_of_document_and_empty_mapping(self):
        mapping = Mapping({"name": Span(0, 4), "rest": Span(5, 8)})
        assert mapping.contents(Document("John Doe")) == {"name": "John", "rest": "Doe"}
        assert Mapping().contents("John Doe") == {}


class TestCompatibilityAndUnion:
    def test_compatible_disjoint_domains(self):
        left = Mapping({"x": Span(0, 1)})
        right = Mapping({"y": Span(2, 3)})
        assert left.compatible(right)
        assert right.compatible(left)

    def test_compatible_agreeing_overlap(self):
        left = Mapping({"x": Span(0, 1), "y": Span(2, 3)})
        right = Mapping({"x": Span(0, 1)})
        assert left.compatible(right)

    def test_incompatible(self):
        left = Mapping({"x": Span(0, 1)})
        right = Mapping({"x": Span(0, 2)})
        assert not left.compatible(right)

    def test_union(self):
        left = Mapping({"x": Span(0, 1)})
        right = Mapping({"y": Span(2, 3)})
        assert left.union(right) == Mapping({"x": Span(0, 1), "y": Span(2, 3)})

    def test_union_incompatible_raises(self):
        with pytest.raises(SpanError):
            Mapping({"x": Span(0, 1)}).union(Mapping({"x": Span(1, 2)}))

    def test_union_with_empty(self):
        mapping = Mapping({"x": Span(0, 1)})
        assert mapping.union(Mapping.EMPTY) == mapping
        assert Mapping.EMPTY.union(mapping) == mapping


class TestRestrictDropRename:
    def test_restrict(self):
        mapping = Mapping({"x": Span(0, 1), "y": Span(2, 3)})
        assert mapping.restrict(["x"]) == Mapping({"x": Span(0, 1)})
        assert mapping.restrict([]) == Mapping.EMPTY
        assert mapping.restrict(["x", "z"]) == Mapping({"x": Span(0, 1)})

    def test_drop(self):
        mapping = Mapping({"x": Span(0, 1), "y": Span(2, 3)})
        assert mapping.drop(["x"]) == Mapping({"y": Span(2, 3)})

    def test_rename(self):
        mapping = Mapping({"x": Span(0, 1)})
        assert mapping.rename({"x": "z"}) == Mapping({"z": Span(0, 1)})
        assert mapping.rename({"other": "z"}) == mapping


class TestHashingAndRepr:
    def test_equality_and_hash(self):
        a = Mapping({"x": Span(0, 1)})
        b = Mapping({"x": Span(0, 1)})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_to_dict(self):
        assert Mapping({"x": Span(0, 1)}) != {"x": Span(0, 1)}

    def test_repr_sorted(self):
        mapping = Mapping({"b": Span(0, 1), "a": Span(1, 2)})
        assert repr(mapping).index("'a'") < repr(mapping).index("'b'")

    def test_paper_notation(self):
        mapping = Mapping({"name": Span(0, 4)})
        assert mapping.paper_notation() == "{name → [1, 5⟩}"
        assert Mapping.EMPTY.paper_notation() == "{}"
