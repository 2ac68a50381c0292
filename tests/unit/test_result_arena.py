"""Unit tests for the CompiledResultDag arena (repro.runtime.dag)."""

import copy
import functools
import json
import pickle
import sys
import threading
from collections import Counter
from itertools import islice

import pytest

from repro.core.documents import Document
from repro.core.errors import SpanError
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.enumeration import dag as dag_module
from repro.enumeration.enumerate import delay_profile
from repro.enumeration.evaluate import evaluate
from repro.runtime.subset import CompiledSubsetEVA
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
    return CompiledSubsetEVA(fig3_det)


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
        compiled = CompiledSubsetEVA(spanner.compiled(document))

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
        compiled = CompiledSubsetEVA(spanner.compiled(document))
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
        compiled = CompiledSubsetEVA(spanner.compiled(document))
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
        for text in adversarial_documents():
            yield spanner.preprocess(text)


class TestTrustedDecode:
    def test_equals_the_public_decode_in_order(self):
        produced = 0
        for arena in trusted_cases():
            mappings = list(arena.mappings())
            assert_same_objects(mappings, list(public_decode(arena)))
            produced += len(mappings)
        assert produced > 0

    def test_keep_subsets_equal_the_public_decode(self):
        for arena in trusted_cases():
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


#: The trusted-decode patterns plus the nested-output pattern, whose runs
#: close an inner capture before the outer one.
NESTED_PATTERN = ".*x1{.*x2{.*}.*}.*"
LAZY_PATTERNS = TRUSTED_PATTERNS + (NESTED_PATTERN,)


@functools.lru_cache(maxsize=None)
def lazy_cases():
    """``(text, arena)`` over the harness corpus.

    Built once: every walk of an arena starts afresh, so tests share them.
    """
    cases = []
    for pattern in LAZY_PATTERNS:
        spanner = Spanner(pattern)
        for text in adversarial_documents():
            cases.append((text, spanner.preprocess(text)))
    return tuple(cases)


#: The reader tests take this many mappings of each walk; the full walks
#: are compared once, in ``test_walk_equals_the_public_decode``.
READ_LIMIT = 300


def undecoded(arena, keep=None, limit=READ_LIMIT):
    """A fresh walk's first *limit* mappings, checked to be still undecoded."""
    mappings = list(islice(arena.mappings(keep=keep), limit))
    assert all(mapping._assignment is None for mapping in mappings)
    return mappings


def decoded(arena, keep=None, limit=READ_LIMIT):
    """The public decode's first *limit* mappings."""
    return list(islice(public_decode(arena, keep), limit))


class UnreadableDocument:
    """A document whose text must never be read."""

    @property
    def text(self):
        raise AssertionError("an empty mapping must not read its document")


#: Readers that decode an undecoded mapping, each asked first.
READERS = {
    "items": lambda mapping: list(mapping.items()),
    "hash": hash,
    "repr": repr,
    "paper_notation": lambda mapping: mapping.paper_notation(),
    "len": len,
    "iter": list,
    "domain": lambda mapping: mapping.domain(),
    "getitem": lambda mapping: [mapping[variable] for variable in sorted(mapping)],
    "public_constructor": lambda mapping: list(Mapping(mapping).items()),
    "copy": lambda mapping: list(copy.copy(mapping).items()),
    "deepcopy": lambda mapping: list(copy.deepcopy(mapping).items()),
    "pickle": lambda mapping: list(pickle.loads(pickle.dumps(mapping)).items()),
    "restrict": lambda mapping: list(mapping.restrict({"x", "x2"}).items()),
    "union": lambda mapping: list(mapping.union(Mapping.EMPTY).items()),
}


#: Threads decoding one shared list at once: more than a small host's cores.
DECODE_THREADS = 4


class TestLazyDecode:
    def test_walk_equals_the_public_decode(self):
        # TestTrustedDecode walks the other patterns in full.
        produced = 0
        spanner = Spanner(NESTED_PATTERN)
        for text in adversarial_documents():
            arena = spanner.preprocess(text)
            mappings = undecoded(arena, limit=None)
            assert_same_objects(mappings, list(public_decode(arena)))
            produced += len(mappings)
        assert produced > 0

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_each_reader_decodes_an_undecoded_mapping(self, reader):
        read = READERS[reader]
        for text, arena in lazy_cases():
            expected = decoded(arena)
            mappings = undecoded(arena)
            assert [read(mapping) for mapping in mappings] == [read(m) for m in expected]
            # Decoded once, stored, and the path dropped.
            assert all(mapping._path is None for mapping in mappings)
            assert_same_objects(mappings, expected)

    @pytest.mark.parametrize("form", ["copy", "pickle", "public_constructor"])
    def test_copies_of_an_undecoded_mapping_equal_the_eager_one(self, form):
        make = {
            "copy": copy.copy,
            "pickle": lambda mapping: pickle.loads(pickle.dumps(mapping)),
            "public_constructor": Mapping,
        }[form]
        for text, arena in lazy_cases():
            for mapping, public in zip(undecoded(arena), decoded(arena)):
                duplicate = make(mapping)
                assert type(duplicate) is Mapping
                assert duplicate._assignment is not None
                assert duplicate == public and hash(duplicate) == hash(public)
                assert list(duplicate.items()) == list(public.items())

    def test_equality_between_undecoded_mappings(self):
        for text, arena in lazy_cases():
            first, second = undecoded(arena), undecoded(arena)
            assert first == second
            assert [hash(mapping) for mapping in first] == [hash(m) for m in second]

    def test_contents_slices_the_path_without_decoding(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("contents must slice an undecoded mapping's path")

        checked = 0
        for text, arena in lazy_cases():
            expected = [
                {variable: span.content(text) for variable, span in public.items()}
                for public in decoded(arena)
            ]
            mappings = undecoded(arena)
            with monkeypatch.context() as patch:
                patch.setattr(Mapping, "_decoded", forbidden)
                extracted = [mapping.contents(text) for mapping in mappings]
                extracted_from_document = [mapping.contents(Document(text)) for mapping in mappings]
            assert [list(c.items()) for c in extracted] == [list(c.items()) for c in expected]
            assert extracted_from_document == extracted
            assert all(mapping._assignment is None for mapping in mappings)
            checked += len(mappings)
        assert checked > 0

    def test_contents_of_a_shorter_text_raises_the_same_span_error(self):
        raised = 0
        for text, arena in lazy_cases():
            for mapping, public in zip(undecoded(arena), decoded(arena)):
                ends = [span.end for _, span in public.items()]
                if not ends or max(ends) == 0:
                    continue
                short = text[: max(ends) - 1]
                with pytest.raises(SpanError) as eager:
                    public.contents(short)
                with pytest.raises(SpanError) as lazy:
                    mapping.contents(short)
                assert str(lazy.value) == str(eager.value)
                raised += 1
        assert raised > 0

    def test_contents_of_an_empty_mapping_reads_no_document(self):
        empty = 0
        for text, arena in lazy_cases():
            for keep in (None, frozenset()):
                for mapping in undecoded(arena, keep=keep):
                    if keep is None and mapping._path:
                        continue
                    assert mapping.contents(UnreadableDocument()) == {}
                    assert len(mapping) == 0
                    empty += 1
        for mapping in undecoded(Spanner("a*").preprocess("aa")):
            assert mapping.contents(UnreadableDocument()) == {}
            empty += 1
        assert empty > 0

    def test_keep_decodes_only_the_kept_variables(self):
        for text, arena in lazy_cases():
            variables = arena.automaton.variables()
            for keep in (frozenset({"x"}), frozenset({"x2"}), frozenset(variables)):
                expected = decoded(arena, keep)
                contents = [mapping.contents(text) for mapping in undecoded(arena, keep)]
                assert contents == [
                    {variable: span.content(text) for variable, span in public.items()}
                    for public in expected
                ]
                mappings = undecoded(arena, keep)
                assert_same_objects(mappings, expected)
                assert all(set(mapping) <= keep for mapping in mappings)

    def test_threads_decoding_one_shared_mapping_agree(self):
        # More threads than a small host has cores, switching as often as
        # the interpreter allows, all decoding the same undecoded list.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for text, arena in lazy_cases():
                expected = [list(public.items()) for public in decoded(arena)]
                if not expected:
                    continue
                for _ in range(3):
                    mappings = undecoded(arena)
                    barrier = threading.Barrier(DECODE_THREADS, timeout=30)
                    seen = [None] * DECODE_THREADS

                    def decode(slot):
                        barrier.wait()
                        seen[slot] = [list(mapping.items()) for mapping in mappings]

                    threads = [
                        threading.Thread(target=decode, args=(slot,)) for slot in range(DECODE_THREADS)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30)
                        assert not thread.is_alive()
                    assert seen == [expected] * DECODE_THREADS
                    assert [list(mapping.items()) for mapping in mappings] == expected
        finally:
            sys.setswitchinterval(previous)


class TestServeParity:
    def test_mapping_events_render_lazy_and_eager_mappings_identically(self):
        from repro.server.protocol import mapping_event

        rendered = 0
        for text, arena in lazy_cases():
            for mapping, public in zip(undecoded(arena), decoded(arena)):
                eager = Mapping({variable: Span(span.begin, span.end) for variable, span in public.items()})
                for settled in (False, True):
                    for sort_keys in (False, True):
                        lazy_line = json.dumps(mapping_event(mapping, settled=settled), sort_keys=sort_keys)
                        eager_line = json.dumps(mapping_event(eager, settled=settled), sort_keys=sort_keys)
                        assert lazy_line.encode("utf-8") == eager_line.encode("utf-8")
                rendered += 1
        assert rendered > 0
