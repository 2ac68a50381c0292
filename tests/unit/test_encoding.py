"""Unit tests for the document-encoding layer (repro.runtime.encoding).

Covers the symbol-equivalence-class construction, the C-level translation
(byte table, str.translate fallback, wide-classing array path), the
per-document cache with its signature sharing and FIFO bound, and
repeated evaluation by the engines that consume the encoded buffers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.documents import OTHER, Document, DocumentCollection
from repro.counting.census import CensusInstance
from repro.runtime import encoding
from repro.runtime.encoding import EncodedDocument, SymbolClassing
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import set_table
from repro.runtime.subset import NO_TARGET, CompiledSubsetEVA
from repro.spanners.spanner import Spanner
from repro.workloads.spanners import random_census_nfa


def compiled_for(pattern: str, alphabet: str):
    spanner = Spanner.from_regex(pattern, alphabet)
    automaton = spanner.compiled()
    return CompiledSubsetEVA(automaton)


class TestSymbolClasses:
    def test_identical_columns_collapse(self):
        # In ".*x{a+b}.*" over a 12-letter alphabet plus OTHER, every
        # symbol except the two the automaton distinguishes behaves
        # identically.
        compiled = compiled_for(".*x{a+b}.*", "abcdefghijkl")
        assert len(compiled.symbols) == 13
        assert compiled.num_classes < len(compiled.symbols)

    def test_class_table_matches_letter_table(self):
        compiled = compiled_for(".*x{a+b}.*", "abcd")
        class_of = compiled.classing.class_of
        states = compiled.base_state_objects
        for base, state in enumerate(states):
            row = compiled.class_table[compiled.state_id(frozenset({state}))]
            for symbol_id, targets in enumerate(compiled.base_letter[base]):
                expected = (
                    compiled.state_id(frozenset(states[t] for t in targets))
                    if targets
                    else NO_TARGET
                )
                assert row[class_of[symbol_id]] == expected
            # The trailing foreign column is all-dead.
            assert row[compiled.classing.foreign_class] == NO_TARGET

    def test_single_class_alphabet(self):
        compiled = compiled_for(".*", "a")
        assert compiled.num_classes == 1

    def test_signatures_shared_across_compilations(self):
        first = compiled_for(".*x{a+b}.*", "ab")
        second = compiled_for(".*x{a+b}.*", "ab")
        assert first.classing is not second.classing
        assert first.classing == second.classing
        assert hash(first.classing) == hash(second.classing)

    def test_subset_runtime_carries_classing(self):
        spanner = Spanner.from_regex(".*x{a+b}.*")
        subset_eva = spanner.runtime("abcd")
        assert isinstance(subset_eva, CompiledSubsetEVA)
        assert subset_eva.num_classes <= len(subset_eva.symbols)
        encoded = subset_eva.encode("abcd✗")
        assert encoded.buffer[-1] == subset_eva.classing.other_class


class TestEncoding:
    def test_symbols_map_to_their_class(self):
        classing = SymbolClassing(("a", "b", "c"), (0, 1, 0))
        encoded = classing.encode_fresh("abca")
        assert list(encoded.buffer) == [0, 1, 0, 0]
        assert isinstance(encoded.buffer, bytes)
        assert encoded.length == 4

    def test_foreign_characters_map_to_foreign_class(self):
        classing = SymbolClassing(("a", "b"), (0, 1))
        foreign = classing.foreign_class
        # High codepoints, low control codepoints that collide with class
        # ids, and latin-1 bytes outside the alphabet all land on foreign.
        encoded = classing.encode_fresh("a✗\x00\x01zb")
        assert list(encoded.buffer) == [0, foreign, foreign, foreign, foreign, 1]

    def test_unnamed_characters_map_to_other_class(self):
        classing = SymbolClassing(("a", OTHER, "b"), (0, 2, 1))
        other = classing.other_class
        assert other == 2 != classing.foreign_class
        # The latin-1 byte path, then the str.translate path (a character
        # >= U+0100 in the text), both with low codepoints that collide
        # with class ids.
        for text in ("a\x00\x01\x02zb", "a\x00\x01\x02zb✗😀\ud800"):
            encoded = classing.encode_fresh(text)
            assert list(encoded.buffer)[:6] == [0, other, other, other, other, 1]
            assert set(list(encoded.buffer)[6:]) <= {other}

    def test_wide_classing_maps_unnamed_characters_to_other_class(self):
        symbols = tuple(chr(0x100 + i) for i in range(300)) + (OTHER,)
        classing = SymbolClassing(symbols, tuple(range(301)))
        encoded = classing.encode_fresh(symbols[0] + "z\x00€")
        assert not isinstance(encoded.buffer, bytes)
        assert list(encoded.buffer) == [0, 300, 300, 300]

    def test_non_latin1_text_falls_back_to_str_translate(self):
        classing = SymbolClassing(("a", "✗"), (0, 1))
        encoded = classing.encode_fresh("a✗a☃")
        assert list(encoded.buffer) == [0, 1, 0, classing.foreign_class]

    def test_wide_classing_uses_int_array(self):
        symbols = tuple(chr(0x100 + i) for i in range(300))
        classing = SymbolClassing(symbols, tuple(range(300)))
        assert classing.num_ids > 256
        encoded = classing.encode_fresh(symbols[0] + symbols[299] + "z")
        assert not isinstance(encoded.buffer, bytes)
        assert list(encoded.buffer) == [0, 299, classing.foreign_class]

    def test_empty_document(self):
        classing = SymbolClassing(("a",), (0,))
        encoded = classing.encode_fresh("")
        assert len(encoded.buffer) == 0
        assert encoded.length == 0

    def test_encoded_document_passes_through(self):
        classing = SymbolClassing(("a", "b"), (0, 1))
        encoded = classing.encode("ab")
        assert classing.encode(encoded) is encoded
        # A different classing re-encodes from the retained text.
        other = SymbolClassing(("a", "b"), (0, 0))
        re_encoded = other.encode(encoded)
        assert isinstance(re_encoded, EncodedDocument)
        assert list(re_encoded.buffer) == [0, 0]


class TestDocumentCache:
    def test_same_document_encodes_once_per_signature(self):
        classing = SymbolClassing(("a", "b"), (0, 1))
        document = Document("abab")
        encoding.reset_encoding_passes()
        first = classing.encode(document)
        again = classing.encode(document)
        assert first is again
        assert encoding.encoding_passes() == 1
        # An equal classing from another compilation hits the same entry.
        twin = SymbolClassing(("a", "b"), (0, 1))
        assert twin.encode(document) is first
        assert encoding.encoding_passes() == 1

    def test_cache_is_lru_bounded(self):
        document = Document("ab")
        # One distinct signature per classing: vary the symbols tuple.
        classings = [
            SymbolClassing((chr(ord("a") + index),), (0,))
            for index in range(Document.MAX_CACHED_ENCODINGS + 2)
        ]
        for classing in classings:
            classing.encode(document)
        assert document.cached_encodings() == Document.MAX_CACHED_ENCODINGS
        # The least recently used entries were evicted, the newest survives.
        assert document.cached_encoding(classings[0].signature) is None
        assert document.cached_encoding(classings[1].signature) is None
        assert document.cached_encoding(classings[-1].signature) is not None

    def test_cache_hits_refresh_recency(self):
        document = Document("ab")
        classings = [
            SymbolClassing((chr(ord("a") + index),), (0,))
            for index in range(Document.MAX_CACHED_ENCODINGS + 1)
        ]
        for classing in classings[:-1]:
            classing.encode(document)
        # Touch the oldest entry, then insert one more: the eviction must
        # hit the now-least-recently-used second entry, not the first.
        assert document.cached_encoding(classings[0].signature) is not None
        classings[-1].encode(document)
        assert document.cached_encoding(classings[0].signature) is not None
        assert document.cached_encoding(classings[1].signature) is None

    def test_plain_strings_are_not_cached(self):
        classing = SymbolClassing(("a",), (0,))
        encoding.reset_encoding_passes()
        classing.encode("aaa")
        classing.encode("aaa")
        assert encoding.encoding_passes() == 2

    def test_pickling_drops_the_cache(self):
        classing = SymbolClassing(("a", "b"), (0, 1))
        document = Document("abab", name="doc")
        classing.encode(document)
        assert document.cached_encodings() == 1
        clone = pickle.loads(pickle.dumps(document))
        assert clone.text == document.text
        assert clone.name == "doc"
        assert clone.cached_encodings() == 0

    def test_facade_shares_one_pass_across_operations(self):
        spanner = Spanner.from_regex(".*x{a+b}.*")
        document = Document("abaab" * 20)
        spanner.compiled(document.text)  # compile outside the counted region
        encoding.reset_encoding_passes()
        spanner.evaluate(document)
        spanner.count(document)
        list(spanner.enumerate(document))
        assert encoding.encoding_passes() == 1

    def test_collection_encode_all(self):
        shared = Document("abab")
        collection = DocumentCollection([shared, shared.text, "bbbb"])
        classing = SymbolClassing(("a", "b"), (0, 1))
        assert collection.encode_all(classing) == 3
        assert collection.encode_all(classing) == 0

    def test_collection_alphabet_memo_invalidated_by_add(self):
        collection = DocumentCollection(["ab"])
        assert collection.alphabet() == frozenset("ab")
        collection.add("cd")
        assert collection.alphabet() == frozenset("abcd")


class TestScratchReuse:
    """Repeated evaluation on one compiled automaton reuses its set plans.

    The reusable scratch of an automaton is its :class:`SetTable`: every
    call borrows the interned active sets and their plans from it instead
    of allocating state-indexed rows of its own.
    """

    def test_count_compiled_accepts_and_reuses_scratch(self):
        for compiled in (
            compiled_for(".*x{a+b}.*", "ab"),
            Spanner.from_regex(".*x{a+b}.*").runtime("ab"),
        ):
            baseline = count_compiled(compiled, "abaab")
            table = set_table(compiled)
            records = dict(table.records)
            assert records
            for _ in range(3):
                assert count_compiled(compiled, "abaab") == baseline == 3
            # Later calls run on the same table and plan no new sets.
            assert set_table(compiled) is table
            assert table.records == records

    def test_one_scratch_serves_count_and_arena(self):
        for compiled in (
            compiled_for(".*x{a+b}.*", "ab"),
            Spanner.from_regex(".*x{a+b}.*").runtime("ab"),
        ):
            dag = evaluate_compiled_arena(compiled, "abaab")
            table = set_table(compiled)
            records = dict(table.records)
            assert count_compiled(compiled, "abaab") == dag.count() == 3
            # Counting met only sets the arena loop had planned.
            assert set_table(compiled) is table
            assert table.records == records

    def test_census_compiled_solver_matches_direct(self):
        instance = CensusInstance(random_census_nfa(4, "ab", density=0.4, seed=5), 4)
        assert instance.solve_via_compiled_spanner(repeat=3) == (
            instance.solve_directly()
        )


class TestSprintPatterns:
    """The stop pattern of a quiet set: the classes some member moves on.

    The lone silent ``sprint`` chases a singleton's, and a quiet set's
    idle stretches end at its stop; the expected stops are read straight
    off ``class_table``, over a deterministic source whose states are
    all interned first.
    """

    @staticmethod
    def silent_states(compiled):
        for state in compiled.base_state_objects:
            compiled.state_id(frozenset({state}))
        return [state for state in range(compiled.num_states) if compiled.silent[state]]

    def test_stop_pattern_excludes_self_loops(self):
        compiled = compiled_for(".*x{a+b}.*", "ab")
        table = set_table(compiled)
        silent = self.silent_states(compiled)
        assert silent
        for state in silent:
            record = table.record((state,))
            assert record.quiet
            pattern = table.stop_pattern(record)
            row = compiled.class_table[state]
            buffer = bytes(range(compiled.classing.num_ids))
            stops = {match.start() for match in pattern.finditer(buffer)}
            expected = {
                class_id
                for class_id in range(compiled.classing.num_ids)
                if row[class_id] != state
            }
            assert stops == expected

    def test_multi_pattern_is_union_of_stops(self):
        compiled = compiled_for(".*x{a+b}.*", "ab")
        states = tuple(self.silent_states(compiled)[:2])
        assert len(states) == 2
        table = set_table(compiled)
        record = table.record(states)
        assert record.quiet
        pattern = table.stop_pattern(record)
        buffer = bytes(range(compiled.classing.num_ids))
        stops = {match.start() for match in pattern.finditer(buffer)}
        expected = {
            class_id
            for state in states
            for class_id in range(compiled.classing.num_ids)
            if compiled.class_table[state][class_id] != state
        }
        assert stops == expected
