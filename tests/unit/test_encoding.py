"""Unit tests for the document-encoding layer (repro.runtime.encoding).

Covers the symbol-equivalence-class construction, the C-level translation
(byte table, str.translate fallback, wide-classing array path), the
per-document cache with its signature sharing and FIFO bound, and the
scratch-reuse plumbing of the engines that consume the encoded buffers.
"""

from __future__ import annotations

import pickle
import random
from array import array

import pytest

from repro.core.documents import Document, DocumentCollection
from repro.core.errors import EvaluationError
from repro.counting.census import CensusInstance
from repro.runtime import encoding
from repro.runtime.compiled import NO_TARGET, compile_eva
from repro.runtime.encoding import EncodedDocument, SymbolClassing
from repro.runtime.engine import (
    EvaluationScratch,
    count_compiled,
    evaluate_compiled_arena,
)
from repro.runtime.subset import CompiledSubsetEVA
from repro.spanners.spanner import Spanner
from repro.workloads.spanners import random_census_nfa


def compiled_for(pattern: str, alphabet: str):
    spanner = Spanner.from_regex(pattern)
    automaton = spanner.compiled(alphabet)
    return compile_eva(automaton, check_determinism=False)


class TestSymbolClasses:
    def test_identical_columns_collapse(self):
        # In ".*x{a+b}.*" over a 12-symbol alphabet, every symbol except the
        # two the automaton distinguishes behaves identically.
        compiled = compiled_for(".*x{a+b}.*", "abcdefghijkl")
        assert compiled.num_symbols == 12
        assert compiled.num_classes < compiled.num_symbols

    def test_class_table_matches_letter_table(self):
        compiled = compiled_for(".*x{a+b}.*", "abcd")
        class_of = compiled.classing.class_of
        for state in range(compiled.num_states):
            for symbol_id in range(compiled.num_symbols):
                assert (
                    compiled.letter_table[state][symbol_id]
                    == compiled.class_table[state][class_of[symbol_id]]
                )
            # The trailing foreign column is all-dead.
            assert compiled.class_table[state][compiled.classing.foreign_class] == (
                NO_TARGET
            )

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
        subset_eva = spanner.otf_runtime("abcd")
        assert isinstance(subset_eva, CompiledSubsetEVA)
        assert subset_eva.num_classes <= len(subset_eva.symbols)
        encoded = subset_eva.encode("abcd✗")
        assert encoded.buffer[-1] == subset_eva.classing.foreign_class


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


class TestRunLengthView:
    def test_runs_concatenate_back_to_the_buffer(self):
        classing = SymbolClassing(("a", "b"), (0, 1))
        encoded = classing.encode("aaabbbab" * 3)
        rebuilt = b"".join(
            bytes((cls,)) * length for cls, length in encoded.runs()
        )
        assert rebuilt == bytes(encoded.buffer)
        assert encoded.mean_run_length() == encoded.length / len(encoded.runs())

    def test_runs_are_cached_on_the_encoding(self):
        classing = SymbolClassing(("a", "b"), (0, 1))
        encoded = classing.encode("aabb")
        assert encoded.runs() is encoded.runs()

    def test_rle_cache_rides_the_encoding_cache(self):
        # The RLE view lives on the EncodedDocument, which the Document
        # caches per classing signature — so the run view can never
        # outlive (or be served for) a different signature's buffer.
        document = Document("aabbaa")
        wide = SymbolClassing(("a", "b"), (0, 1))
        collapsed = SymbolClassing(("a", "b"), (0, 0))
        runs_wide = wide.encode(document).runs()
        runs_collapsed = collapsed.encode(document).runs()
        assert runs_wide == ((0, 2), (1, 2), (0, 2))
        assert runs_collapsed == ((0, 6),)
        # Re-encoding under the first signature still serves its own runs.
        assert wide.encode(document).runs() == runs_wide

    def test_stale_signature_regression_after_eviction(self):
        # Fill the document's encoding cache past its bound so the first
        # signature is evicted, then re-encode it: the fresh encoding
        # must carry a fresh (correct) run view, never a stale one.
        document = Document("aabb")
        first = SymbolClassing(("a", "b"), (0, 1))
        assert first.encode(document).runs() == ((0, 2), (1, 2))
        for index in range(Document.MAX_CACHED_ENCODINGS + 1):
            SymbolClassing((chr(ord("c") + index),), (0,)).encode(document)
        assert document.cached_encoding(first.signature) is None
        encoded = first.encode(document)
        assert encoded.runs() == ((0, 2), (1, 2))
        assert bytes(encoded.buffer) == b"\x00\x00\x01\x01"

    def test_pickling_drops_the_run_view(self):
        classing = SymbolClassing(("a", "b"), (0, 1))
        encoded = classing.encode("aabb")
        runs = encoded.runs()
        encoded.run_count()
        clone = pickle.loads(pickle.dumps(encoded))
        assert clone._runs is None
        assert clone._run_count is None
        assert clone.runs() == runs

    @pytest.mark.parametrize(
        "ids",
        [
            [],
            [4],
            [3] * 50,
            [0, 1] * 25,
            [0, 0, 1, 1, 1, 0, 2, 2, 5],
            [random.Random(11).randrange(6) for _ in range(200)],
            [random.Random(12).choice((0, 0, 0, 1)) for _ in range(200)],
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, 7, encoding._RUN_COUNT_BLOCK])
    def test_run_count_equals_the_number_of_runs(self, ids, block, monkeypatch):
        # Both buffer flavours, slices cut at arbitrary positions (as the
        # run-length segment memo cuts them), and blocks small enough to put a block boundary inside and
        # between runs.  The wide ids differ from each other in a single
        # byte, so a byte-level comparison could not pass by accident.
        monkeypatch.setattr(encoding, "_RUN_COUNT_BLOCK", block)
        wide_ids = (0, 1, 256, 257, 65536, 2**32 - 1)
        buffers = (bytes(ids), array("I", [wide_ids[i] for i in ids]))
        cuts = sorted({0, 1, len(ids) // 3, len(ids) // 2, len(ids) - 1, len(ids)})
        for buffer in buffers:
            for lo in cuts:
                for hi in cuts:
                    piece = buffer[lo:hi]
                    assert encoding.run_count(piece) == len(
                        encoding.runs_of_buffer(piece)
                    )

    def test_run_count_across_real_blocks(self):
        rng = random.Random(13)
        ids = [rng.choice((0, 0, 1, 2)) for _ in range(3 * encoding._RUN_COUNT_BLOCK + 5)]
        for buffer in (bytes(ids), array("I", [i << 16 for i in ids])):
            assert encoding.run_count(buffer) == len(encoding.runs_of_buffer(buffer))

    @pytest.mark.parametrize(
        "text", ["", "a", "aaaa", "abab", "aaabbbab" * 3, "aĀa" * 9]
    )
    def test_mean_run_length_reads_the_count_not_the_runs(self, text):
        for classing in (
            SymbolClassing(("a", "b"), (0, 1)),
            SymbolClassing(
                ("a", "b") + tuple(chr(300 + i) for i in range(298)), range(300)
            ),
        ):
            encoded = classing.encode(text)
            mean = encoded.mean_run_length()
            assert encoded._runs is None
            runs = encoded.runs()
            assert encoded.run_count() == len(runs)
            assert mean == (encoded.length / len(runs) if runs else 0.0)


class TestScratchReuse:
    def test_count_compiled_accepts_and_reuses_scratch(self):
        compiled = compiled_for(".*x{a+b}.*", "ab")
        scratch = EvaluationScratch(compiled)
        baseline = count_compiled(compiled, "abaab")
        for _ in range(3):
            assert count_compiled(compiled, "abaab", scratch=scratch) == baseline
        # The borrowed count rows come back zeroed.
        assert not any(scratch.count_cur)
        assert not any(scratch.count_pend)

    def test_count_compiled_rejects_foreign_scratch(self):
        compiled = compiled_for(".*x{a+b}.*", "ab")
        other = compiled_for(".*", "ab")
        with pytest.raises(EvaluationError):
            count_compiled(compiled, "ab", scratch=EvaluationScratch(other))

    def test_one_scratch_serves_count_and_arena(self):
        compiled = compiled_for(".*x{a+b}.*", "ab")
        scratch = EvaluationScratch(compiled)
        dag = evaluate_compiled_arena(compiled, "abaab", scratch=scratch)
        assert count_compiled(compiled, "abaab", scratch=scratch) == dag.count()

    def test_census_compiled_solver_matches_direct(self):
        instance = CensusInstance(random_census_nfa(4, "ab", density=0.4, seed=5), 4)
        assert instance.solve_via_compiled_spanner(repeat=3) == (
            instance.solve_directly()
        )


class TestSprintPatterns:
    def test_stop_pattern_excludes_self_loops(self):
        compiled = compiled_for(".*x{a+b}.*", "ab")
        for state in range(compiled.num_states):
            pattern = compiled.sprint_pattern(state)
            row = compiled.class_table[state]
            buffer = bytes(range(compiled.classing.num_ids))
            stops = {match.start() for match in pattern.finditer(buffer)}
            expected = {
                class_id
                for class_id, target in enumerate(row)
                if target != state
            }
            assert stops == expected

    def test_multi_pattern_is_union_of_stops(self):
        compiled = compiled_for(".*x{a+b}.*", "ab")
        states = tuple(sorted(range(min(2, compiled.num_states))))
        pattern = compiled.sprint_pattern_multi(states)
        buffer = bytes(range(compiled.classing.num_ids))
        stops = {match.start() for match in pattern.finditer(buffer)}
        expected = {
            class_id
            for state in states
            for class_id, target in enumerate(compiled.class_table[state])
            if target != state
        }
        assert stops == expected
