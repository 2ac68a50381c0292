"""Unit tests for the lazily determinized runtime (:mod:`repro.runtime.subset`).

A :class:`CompiledSubsetEVA` is the one automaton the kernel loops run.
Its tables are filled on first read, so they grow *while* a loop runs,
and the loops' set plans name subsets discovered mid-call.  These tests
pin that growth across arena and count calls on one instance, fast path
on and off, and across a pickle round trip; and the generations that
bound it: past :data:`SUBSET_CAP` subsets every holder takes a fresh
automaton at its next call, while what is in flight keeps the old one.
"""

from __future__ import annotations

import gc
import pickle
import random
import weakref

import pytest

from harness import adversarial_documents, assert_all_engines_agree

from repro.core.documents import DocumentCollection
from repro.runtime import subset
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import set_table
from repro.server import ServerMetrics
from repro.spanners.spanner import Spanner

#: Non-deterministic: the subset construction tracks where the ``a``s of
#: the last six characters are, so mixed text keeps discovering subsets.
PATTERN = ".*a.....x{b}.*"
#: A quiescent b-prefix (the lone initial run sprints), then the subsets
#: are first discovered partway through the document.
DOCUMENT = "b" * 40 + "abaababbbaaabbab" * 6 + "b" * 20


def reference(document: str) -> tuple[set[str], int]:
    dag = Spanner(PATTERN, engine="reference").preprocess(document)
    return {str(mapping) for mapping in dag}, dag.count()


def arena(runtime, document: str, fast_path: bool) -> tuple[set[str], int]:
    dag = evaluate_compiled_arena(runtime, document, fast_path=fast_path)
    return {str(mapping) for mapping in dag}, dag.count()


def assert_plans_known(runtime) -> None:
    # Every set a loop met is made of subsets the runtime has interned.
    records = set_table(runtime).records
    assert records
    assert all(max(members) < runtime.num_states for members in records)


@pytest.mark.parametrize("fast_path", [True, False])
def test_slots_grow_mid_call_across_calls_and_a_pickle(fast_path):
    runtime = Spanner(PATTERN, engine="compiled-otf").runtime(DOCUMENT)
    assert runtime.num_states == 1  # cold: only the initial subset
    expected = reference(DOCUMENT)

    # Every other subset is interned inside this one call.
    assert arena(runtime, DOCUMENT, fast_path) == expected
    grown = runtime.num_states
    assert grown > 1
    assert_plans_known(runtime)
    assert count_compiled(runtime, DOCUMENT, fast_path=fast_path) == expected[1]
    assert arena(runtime, DOCUMENT, fast_path) == expected
    assert runtime.num_states == grown  # warm: nothing left to discover
    assert_plans_known(runtime)

    # Only plain data crosses: no lazy table, set plan or bound
    # lookup rides along (closures would not pickle at all).
    payload = pickle.dumps(runtime)
    for name in (
        b"_LetterRow",
        b"_VariableTable",
        b"SetTable",
        b"SetRecord",
        b"getattr",
    ):
        assert name not in payload
    clone = pickle.loads(payload)
    assert clone.num_states == grown
    assert clone._set_table is None
    assert arena(clone, DOCUMENT, fast_path) == expected
    assert count_compiled(clone, DOCUMENT, fast_path=fast_path) == expected[1]
    assert clone.num_states == grown

    # The loaded instance keeps discovering, and its plans keep up.
    rng = random.Random(3)
    fresh = "".join(rng.choice("ab") for _ in range(300))
    assert arena(clone, fresh, fast_path) == reference(fresh)
    assert clone.num_states > grown
    assert count_compiled(clone, fresh, fast_path=fast_path) == reference(fresh)[1]
    assert_plans_known(clone)


class TestGenerations:
    """:meth:`CompiledSubsetEVA.renewed` past :data:`SUBSET_CAP` subsets."""

    def test_renewed_is_self_until_the_cap_then_one_successor(self, monkeypatch):
        runtime = Spanner(PATTERN).runtime()
        evaluate_compiled_arena(runtime, DOCUMENT)
        assert runtime.renewed() is runtime
        monkeypatch.setattr(subset, "SUBSET_CAP", runtime.num_states - 1)
        successor = runtime.renewed()
        assert successor is not runtime and runtime.renewed() is successor
        assert successor.source is runtime.source
        assert successor.num_states == 1
        assert successor.renewed() is successor

    def test_a_forced_swap_increments_the_counter(self, monkeypatch):
        spanner = Spanner(PATTERN)
        spanner.count(DOCUMENT)
        before = subset.generation_swaps()
        metrics_before = ServerMetrics().snapshot()["generation_swaps"]
        assert metrics_before == before
        monkeypatch.setattr(subset, "SUBSET_CAP", 1)
        renewed = spanner.runtime()  # takes the next generation
        assert subset.generation_swaps() == before + 1
        assert ServerMetrics().snapshot()["generation_swaps"] == before + 1
        assert spanner.runtime() is renewed  # one subset: within the cap
        assert spanner.count(DOCUMENT) == reference(DOCUMENT)[1]
        assert subset.generation_swaps() == before + 1

    def test_harness_agrees_with_swaps_mid_batch(self, monkeypatch):
        # A cap of 2 renews the automaton at nearly every call and
        # between the documents of a batch.
        monkeypatch.setattr(subset, "SUBSET_CAP", 2)
        before = subset.generation_swaps()
        texts = [text for text in adversarial_documents(seed=5) if text]
        for pattern in (PATTERN, ".*x{a+b}.*", ".*x{a}.*y{b}.*"):
            spanner = Spanner(pattern)
            for seed, text in enumerate(texts):
                assert_all_engines_agree(None, text, seed=seed, spanner=spanner)
            collection = DocumentCollection.from_texts(texts + [DOCUMENT])
            expected = [
                (doc_id, result.count())
                for doc_id, result in spanner.run_batch(collection, engine="reference")
            ]
            for streaming in (False, True):
                batch = spanner.run_batch(collection, streaming=streaming)
                assert [(doc_id, result.count()) for doc_id, result in batch] == expected
        assert subset.generation_swaps() > before + len(texts)

    def test_a_stream_moves_its_live_set_onto_the_next_generation(self, monkeypatch):
        spanner = Spanner(PATTERN)
        expected = reference(DOCUMENT)
        stream = spanner.stream()
        half = len(DOCUMENT) // 2
        stream.feed(DOCUMENT[:half])
        first = stream._compiled
        monkeypatch.setattr(subset, "SUBSET_CAP", 1)
        assert spanner.count(DOCUMENT) == expected[1]  # on a new generation
        stream.feed(DOCUMENT[half:])
        assert stream._compiled is not first
        result = stream.finish()
        assert result.tables is stream._compiled
        assert ({str(mapping) for mapping in result}, result.count()) == expected

    @pytest.mark.parametrize("emit", ["on_finish", "incremental"])
    def test_a_blowup_stream_holds_a_bounded_generation(self, monkeypatch, emit):
        # Nearly every character of random ab text meets a new subset
        # (131,077 at k=16 alone), and one 4,000-character chunk holds
        # many caps' worth: the stream renews between the loop calls of
        # one chunk too.
        pattern = ".*a" + "." * 64 + "x{b}.*"
        rng = random.Random(11)
        text = "".join(rng.choice("ab") for _ in range(6000))
        spanner = Spanner(pattern)
        expected = {str(mapping) for mapping in spanner.evaluate(text)}
        cap = 256
        monkeypatch.setattr(subset, "SUBSET_CAP", cap)
        before = subset.generation_swaps()
        stream = spanner.stream(emit=emit)
        held = []
        fed = []
        for begin in (0, 1000, 2000):
            end = begin + (4000 if begin == 2000 else 1000)
            fed.extend(stream.feed(text[begin:end]))
            assert stream._compiled.num_states <= cap
            held.append(weakref.ref(stream._compiled))
        assert subset.generation_swaps() >= before + 6000 // (2 * cap)
        result = stream.finish()
        got = {str(mapping) for mapping in result}
        assert (got, result.count()) == (expected, len(expected))
        assert {str(mapping) for mapping in fed} <= expected
        # Only the generation the result is on is still alive.
        gc.collect()
        tables = getattr(result, "residual", result).tables
        assert [ref() for ref in held if ref() is not None] == [tables]

    def test_a_held_arena_keeps_no_later_generation_alive(self, monkeypatch):
        spanner = Spanner(PATTERN)
        expected = reference(DOCUMENT)
        held = spanner.preprocess(DOCUMENT)
        first = held.tables
        monkeypatch.setattr(subset, "SUBSET_CAP", 1)
        later = []
        for _ in range(4):
            runtime = spanner.runtime()  # the next generation
            assert runtime is not first and arena(runtime, DOCUMENT, True) == expected
            later.append(weakref.ref(runtime))
            del runtime
        gc.collect()
        assert [ref() is None for ref in later] == [True, True, True, False]
        assert held.tables is first
        assert ({str(mapping) for mapping in held}, held.count()) == expected
