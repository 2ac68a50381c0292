"""Bound tests for the two runtime caches.

The happy paths (hits, sharing across engines) are pinned in
``test_encoding.py`` and ``test_spanner_facade.py``; these tests pin the
*bounds*: the per-document encoding cache under interleaved signatures,
and the Spanner's single compilation under interleaved alphabets — no
recompile, one set of plans, and no result that depends on earlier alphabets.
"""

import pickle

from repro import Document, Spanner
from repro.runtime.encoding import SymbolClassing
from repro.runtime.kernel import set_table


def classing_for(symbols: str, class_of=None) -> SymbolClassing:
    ids = tuple(range(len(symbols))) if class_of is None else tuple(class_of)
    return SymbolClassing(tuple(symbols), ids)


class TestDocumentEncodingCacheBound:
    def test_capacity_is_bounded(self):
        document = Document("abc")
        for index in range(Document.MAX_CACHED_ENCODINGS + 5):
            signature = ("sig", index)
            document.store_encoding(signature, object())
        assert document.cached_encodings() == Document.MAX_CACHED_ENCODINGS

    def test_eviction_drops_least_recently_used_not_newest(self):
        document = Document("abc")
        limit = Document.MAX_CACHED_ENCODINGS
        for index in range(limit):
            document.store_encoding(("sig", index), f"enc-{index}")
        # Touch the oldest entry: a hit refreshes recency (LRU, not FIFO),
        # so the *second*-oldest becomes the eviction victim.
        assert document.cached_encoding(("sig", 0)) == "enc-0"
        document.store_encoding(("sig", limit), f"enc-{limit}")
        assert document.cached_encoding(("sig", 0)) == "enc-0"
        assert document.cached_encoding(("sig", 1)) is None
        assert document.cached_encoding(("sig", limit)) == f"enc-{limit}"

    def test_restoring_an_existing_signature_does_not_evict(self):
        document = Document("abc")
        limit = Document.MAX_CACHED_ENCODINGS
        for index in range(limit):
            document.store_encoding(("sig", index), f"enc-{index}")
        document.store_encoding(("sig", limit - 1), "enc-updated")
        assert document.cached_encodings() == limit
        assert document.cached_encoding(("sig", 0)) == "enc-0"
        assert document.cached_encoding(("sig", limit - 1)) == "enc-updated"

    def test_interleaved_signatures_beyond_capacity_stay_correct(self):
        document = Document("abab")
        classings = [
            classing_for("ab", (0, 1)),
            classing_for("ab", (0, 0)),
            classing_for("ab", (1, 0)),
        ]
        expected = {
            id(classing): classing.encode_fresh(document.text).buffer
            for classing in classings
        }
        # Cycle through the classings repeatedly; every encode must match
        # its own signature regardless of what eviction did in between.
        for _round in range(3):
            for classing in classings:
                encoded = classing.encode(document)
                assert encoded.buffer == expected[id(classing)]
                assert encoded.signature == classing.signature

    def test_no_stale_encoding_after_classing_signature_change(self):
        document = Document("abab")
        split = classing_for("ab", (0, 1))
        merged = classing_for("ab", (0, 0))
        first = split.encode(document)
        second = merged.encode(document)
        assert first.buffer != second.buffer
        assert split.encode(document).buffer == first.buffer

    def test_pickling_drops_the_cache(self):
        document = Document("abab")
        classing_for("ab").encode(document)
        assert document.cached_encodings() == 1
        clone = pickle.loads(pickle.dumps(document))
        assert clone.cached_encodings() == 0
        assert clone.text == document.text


class TestSpannerCompilesOnce:
    def test_interleaved_alphabets_share_one_runtime(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        runtime = spanner.runtime("ab")
        for text in ("ac", "ab", "ad", "a€", ""):
            assert spanner.runtime(text) is runtime
        assert spanner.cache_stats().misses == 1
        assert {m["x"].content("ac") for m in spanner.evaluate("ac")} == {"a"}

    def test_all_artifacts_built_once(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        runtime = spanner.runtime("ab")
        plan = spanner.plan("ab")
        spanner.count("ac")
        table = set_table(runtime)
        spanner.count("ab")
        assert spanner.runtime("ab") is runtime
        assert set_table(runtime) is table
        assert spanner.plan("ab") is plan

    def test_set_plans_reused_across_calls_and_alphabets(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        spanner.evaluate("ab")
        table = set_table(spanner.runtime())
        records = dict(table.records)
        spanner.count("ab")
        spanner.evaluate("zé")
        assert set_table(spanner.runtime()) is table
        assert records.items() <= table.records.items()

    def test_interleaving_alphabets_never_recompiles(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        texts = ("ab", "ac", "ad", "aé", "a😀")
        runtime = spanner.runtime()
        for _round in range(3):
            for text in texts:
                assert spanner.runtime(text) is runtime
                assert spanner.count(text) == 1
        assert spanner.cache_stats().misses == 1

    def test_results_do_not_depend_on_earlier_alphabets(self):
        spanner = Spanner.from_regex(".*x{a}b*.*")
        before = {str(m) for m in spanner.evaluate("ab")}
        spanner.evaluate("ac")
        after = {str(m) for m in spanner.evaluate("ab")}
        assert after == before
