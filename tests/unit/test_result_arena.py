"""Unit tests for the CompiledResultDag arena (repro.runtime.dag)."""

import pickle
from collections import Counter

import pytest

from repro.core.documents import Document
from repro.core.errors import SpanError
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.enumeration import dag as dag_module
from repro.enumeration.enumerate import delay_profile
from repro.enumeration.evaluate import evaluate
from repro.runtime.compiled import compile_eva
from repro.runtime.dag import NIL, CompiledResultDag
from repro.runtime.engine import (
    count_compiled,
    evaluate_compiled_arena,
)
from repro.spanners.spanner import Spanner

from harness import adversarial_documents


def mappings_of(result):
    return {str(mapping) for mapping in result}


@pytest.fixture
def fig3_compiled(fig3_det):
    return compile_eva(fig3_det, check_determinism=False)


class TestArenaEngine:
    def test_matches_reference_engine(self, fig3_det, fig3_compiled, figure1_doc):
        reference = evaluate(fig3_det, figure1_doc, check_determinism=False)
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        assert mappings_of(arena) == mappings_of(reference)
        assert arena.count() == reference.count()
        assert arena.node_count() == reference.node_count()

    def test_empty_document_and_no_match(self, fig3_compiled):
        assert mappings_of(evaluate_compiled_arena(fig3_compiled, "")) == set()
        assert evaluate_compiled_arena(fig3_compiled, "✗✗✗").is_empty()

    def test_plans_reused_across_documents(self, fig3_compiled, fig3_det):
        for document in ("John <j@g.be>", "", "a", "Jane <555-12>", "John <j@g.be>"):
            reference = evaluate(fig3_det, document, check_determinism=False)
            arena = evaluate_compiled_arena(fig3_compiled, document)
            assert mappings_of(arena) == mappings_of(reference)
            assert arena.count() == reference.count()

    def test_no_dag_nodes_materialized(self, monkeypatch):
        spanner = Spanner.from_regex("x{a*}a*")
        document = "a" * 8
        compiled = compile_eva(spanner.compiled(document), check_determinism=False)

        def forbidden(*args, **kwargs):
            raise AssertionError("the arena path must not build DagNode objects")

        monkeypatch.setattr(dag_module.DagNode, "__init__", forbidden)
        arena = evaluate_compiled_arena(compiled, document)
        assert arena.count() == 9
        assert len(list(arena)) == 9

    def test_delay_profile_accepts_arena(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        delays = delay_profile(arena)
        assert len(delays) == arena.count()


class TestIntegerCounting:
    def test_count_compiled_equals_dag_count(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        assert count_compiled(fig3_compiled, figure1_doc) == arena.count()

    def test_count_compiled_on_dead_documents(self, fig3_compiled):
        assert count_compiled(fig3_compiled, "") == 0
        assert count_compiled(fig3_compiled, "✗") == 0

    def test_count_with_node_sharing(self):
        spanner = Spanner.from_regex("x{a*}a*")
        document = "a" * 10
        compiled = compile_eva(spanner.compiled(document), check_determinism=False)
        assert count_compiled(compiled, document) == 11
        assert evaluate_compiled_arena(compiled, document).count() == 11


class TestConversions:
    def test_to_result_dag_is_lossless(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        legacy = arena.to_result_dag()
        assert mappings_of(legacy) == mappings_of(arena)
        assert legacy.count() == arena.count()
        assert legacy.node_count() == arena.node_count()

    def test_from_result_dag_is_lossless(self, fig3_det, fig3_compiled, figure1_doc):
        legacy = evaluate(fig3_det, figure1_doc, check_determinism=False)
        arena = CompiledResultDag.from_result_dag(legacy, fig3_compiled)
        assert mappings_of(arena) == mappings_of(legacy)
        assert arena.count() == legacy.count()

    def test_roundtrip_preserves_sharing(self):
        spanner = Spanner.from_regex("x{a*}a*")
        document = "a" * 8
        compiled = compile_eva(spanner.compiled(document), check_determinism=False)
        arena = evaluate_compiled_arena(compiled, document)
        back = CompiledResultDag.from_result_dag(arena.to_result_dag(), compiled)
        assert back.count() == arena.count()
        assert back.node_count() == arena.node_count()

    def test_portable_form_is_picklable_and_lossless(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        portable = arena.to_portable()
        assert pickle.loads(pickle.dumps(portable)) == portable
        rebuilt = CompiledResultDag.from_portable(portable, fig3_compiled)
        assert mappings_of(rebuilt) == mappings_of(arena)
        assert rebuilt.count() == arena.count()


#: The kernel-suite patterns plus nested, overlapping, empty and
#: optional captures, over the harness corpus's ``ab`` alphabet.
TRUSTED_PATTERNS = (
    "x{a*b}",
    ".*x{a+b}.*",
    ".*x{a}.*y{b}.*",
    ".*x{a}b?y{.?}.*",
    "[^a]*x{a+}[^é]*",
    ".*x{.*y{b}.*}.*",
    ".*x{}y{a*}.*",
)


def public_decode(arena, keep=None):
    """Algorithm 2 on *arena* through the validating constructors.

    The arena walk as it was before trusted decoding: path tuples copied
    on every push, every variable tested against *keep* at every step,
    and every object built by ``Span(...)`` and ``Mapping(...)``.
    """
    opens_by_set, closes_by_set = arena.tables.marker_decode_tables()
    for _state, start, end in arena.final_entries:
        stack = [(start, end, ())]
        while stack:
            cell, stop, steps = stack.pop()
            while cell != NIL:
                node = arena.cell_nodes[cell]
                following = NIL if cell == stop else arena.cell_nexts[cell]
                if node == NIL:
                    opens, assignment = {}, {}
                    for set_id, position in steps:
                        for variable in opens_by_set[set_id]:
                            if keep is None or variable in keep:
                                opens[variable] = position
                        for variable in closes_by_set[set_id]:
                            if keep is None or variable in keep:
                                assignment[variable] = Span(opens.pop(variable), position)
                    yield Mapping(assignment)
                    cell = following
                    continue
                if following != NIL:
                    stack.append((following, stop, steps))
                steps = ((arena.node_markers[node], arena.node_positions[node]),) + steps
                cell = arena.node_starts[node]
                stop = arena.node_ends[node]


def assert_same_objects(actual, expected):
    """Equal in order, in each mapping's variable order, and as objects."""
    assert len(actual) == len(expected)
    for mine, public in zip(actual, expected):
        assert type(mine) is Mapping
        assert all(type(span) is Span for _, span in mine.items())
        assert list(mine.items()) == list(public.items())
        assert mine == public
        assert hash(mine) == hash(public)
        assert repr(mine) == repr(public)


def trusted_cases():
    for pattern in TRUSTED_PATTERNS:
        spanner = Spanner(pattern)
        for engine in ("compiled", "compiled-otf"):
            for text in adversarial_documents():
                yield pattern, engine, text, spanner.preprocess(text, engine=engine)


class TestTrustedDecode:
    def test_equals_the_public_decode_in_order(self):
        produced = 0
        for pattern, engine, text, arena in trusted_cases():
            mappings = list(arena.mappings())
            assert_same_objects(mappings, list(public_decode(arena)))
            produced += len(mappings)
        assert produced > 0

    def test_keep_subsets_equal_the_public_decode(self):
        for pattern, engine, text, arena in trusted_cases():
            variables = arena.automaton.variables()
            for keep in (frozenset({"x"}), frozenset(), frozenset(variables)):
                assert_same_objects(
                    list(arena.mappings(keep=keep)), list(public_decode(arena, keep))
                )
            assert_same_objects(
                list(arena.mappings(keep=frozenset(variables))), list(arena.mappings())
            )

    def test_incremental_stream_yields_the_same_mappings(self):
        flushed_early = 0
        for pattern in TRUSTED_PATTERNS:
            spanner = Spanner(pattern)
            for text in adversarial_documents():
                evaluator = spanner.stream(emit="incremental")
                streamed = []
                for char in text:
                    streamed.extend(evaluator.feed(char))
                flushed_early += len(streamed)
                streamed.extend(evaluator.finish().residual)
                expected = list(public_decode(spanner.preprocess(text, engine="compiled")))
                for mapping in streamed:
                    assert all(type(span) is Span for _, span in mapping.items())
                # Variable order inside each mapping is part of the output.
                assert Counter(repr(list(m.items())) for m in streamed) == Counter(
                    repr(list(m.items())) for m in expected
                )
                assert Counter(hash(m) for m in streamed) == Counter(hash(m) for m in expected)
        assert flushed_early > 0

    @pytest.mark.parametrize("as_document", [False, True], ids=["str", "Document"])
    def test_contents_past_the_end_raises_the_span_error(self, as_document):
        text = "aab"
        arena = Spanner(".*x{a+b}.*").preprocess(text, engine="compiled")
        mapping = next(iter(arena))
        span = mapping["x"]
        short = text[: span.end - 1]
        document = Document(short) if as_document else short
        with pytest.raises(SpanError) as from_span:
            span.content(document)
        with pytest.raises(SpanError) as from_mapping:
            mapping.contents(document)
        assert str(from_mapping.value) == str(from_span.value)
        assert str(from_mapping.value) == (
            f"span {span!r} does not fit document of length {len(short)}"
        )
        assert mapping.contents(Document(text) if as_document else text) == {
            "x": text[span.begin : span.end]
        }
