"""Unit tests for the shared bounded plan cache (repro.runtime.plan.PlanCache).

The Spanner facade's single compilation per pattern is pinned separately
in test_plan.py / test_cache_eviction.py; these tests pin the generalized
cache itself — LRU order, the hit/miss/eviction counters the server's
``/metrics`` reports, build-at-most-once, and thread safety.
"""

import threading
import time

import pytest

from repro import CacheStats, PlanCache


class TestBasics:
    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError, match="max_entries must be positive"):
            PlanCache(0)

    def test_get_on_empty_is_none_and_a_miss(self):
        cache = PlanCache(2)
        assert cache.get("a") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_get_or_create_builds_then_reuses(self):
        cache = PlanCache(2)
        built = []

        def factory():
            built.append(object())
            return built[-1]

        first = cache.get_or_create("a", factory)
        second = cache.get_or_create("a", factory)
        assert first is second
        assert len(built) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_contains_and_len_do_not_touch_counters(self):
        cache = PlanCache(2)
        cache.get_or_create("a", object)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_repr_mentions_name_and_occupancy(self):
        cache = PlanCache(3, name="test-cache")
        cache.get_or_create("a", object)
        assert "test-cache" in repr(cache)
        assert "entries=1/3" in repr(cache)


class TestLruOrder:
    def test_evicts_oldest_first(self):
        cache = PlanCache(2)
        cache.get_or_create("a", lambda: "A")
        cache.get_or_create("b", lambda: "B")
        cache.get_or_create("c", lambda: "C")
        assert cache.keys() == ["b", "c"]
        assert cache.stats().evictions == 1

    def test_hit_refreshes_recency(self):
        cache = PlanCache(2)
        cache.get_or_create("a", lambda: "A")
        cache.get_or_create("b", lambda: "B")
        cache.get("a")  # now "b" is the oldest
        cache.get_or_create("c", lambda: "C")
        assert cache.keys() == ["a", "c"]

    def test_evicted_entry_stays_valid_for_holders(self):
        # The invariant the multi-tenant server relies on: eviction only
        # severs the cache's reference, never invalidates the object.
        cache = PlanCache(1)
        held = cache.get_or_create("a", lambda: {"plan": "a"})
        cache.get_or_create("b", lambda: {"plan": "b"})
        assert "a" not in cache
        assert held == {"plan": "a"}
        rebuilt = cache.get_or_create("a", lambda: {"plan": "a2"})
        assert rebuilt is not held

    def test_clear_keeps_counters_reset_stats_zeroes_them(self):
        cache = PlanCache(2)
        cache.get_or_create("a", object)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1
        cache.reset_stats()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)


class TestStats:
    def test_hit_ratio(self):
        stats = CacheStats(hits=3, misses=1, evictions=0, entries=1, max_entries=4)
        assert stats.hit_ratio == 0.75

    def test_hit_ratio_of_untouched_cache_is_zero(self):
        assert PlanCache(1).stats().hit_ratio == 0.0

    def test_as_dict_is_json_ready(self):
        cache = PlanCache(2)
        cache.get_or_create("a", object)
        cache.get("a")
        payload = cache.stats().as_dict()
        assert payload == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "max_entries": 2,
            "build_failures": 0,
            "hit_ratio": 0.5,
        }

    def test_build_failures_are_counted_and_leave_no_entry(self):
        cache = PlanCache(2)

        def explode():
            raise RuntimeError("boom")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                cache.get_or_create("bad", explode)
        assert len(cache) == 0
        assert cache.stats().build_failures == 2
        # A later successful build for the same key is unaffected.
        cache.get_or_create("bad", object)
        assert len(cache) == 1
        cache.reset_stats()
        assert cache.stats().build_failures == 0


class TestThreadSafety:
    def test_concurrent_get_or_create_builds_each_key_once(self):
        cache = PlanCache(64)
        built: dict[int, int] = {}
        build_lock = threading.Lock()

        def factory_for(key):
            def factory():
                with build_lock:
                    built[key] = built.get(key, 0) + 1
                return key

            return factory

        def hammer(worker: int) -> None:
            for round_ in range(200):
                key = (worker + round_) % 16
                assert cache.get_or_create(key, factory_for(key)) == key

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert built == {key: 1 for key in range(16)}
        stats = cache.stats()
        assert stats.misses == 16
        assert stats.hits == 8 * 200 - 16

    def test_concurrent_eviction_pressure_stays_bounded(self):
        cache = PlanCache(4)

        def hammer(worker: int) -> None:
            for round_ in range(300):
                cache.get_or_create((worker, round_ % 32), object)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats()
        assert len(cache) <= 4
        assert stats.entries <= 4
        assert stats.evictions >= stats.misses - 4

    def test_a_slow_build_blocks_neither_hits_nor_stats(self):
        cache = PlanCache(4)
        cache.get_or_create("b", lambda: "B")
        started = threading.Event()

        def slow():
            started.set()
            time.sleep(1.0)
            return "A"

        def failing():
            started.set()
            time.sleep(1.0)
            raise RuntimeError("boom")

        for key, factory, outcome in (("a", slow, "A"), ("c", failing, RuntimeError)):
            started.clear()
            results: list = []

            def build(key=key, factory=factory):
                try:
                    results.append(cache.get_or_create(key, factory))
                except RuntimeError as error:
                    results.append(error)

            builders = [threading.Thread(target=build) for _ in range(2)]
            builders[0].start()
            assert started.wait(5)
            builders[1].start()  # waits on the build in flight
            begin = time.perf_counter()
            assert cache.get_or_create("b", object) == "B"
            assert time.perf_counter() - begin < 0.1
            begin = time.perf_counter()
            cache.stats()
            assert time.perf_counter() - begin < 0.1
            for builder in builders:
                builder.join()
            if outcome is RuntimeError:
                # Both callers see the one build's exception.
                assert [type(result) for result in results] == [RuntimeError] * 2
            else:
                assert results == ["A", "A"]
        stats = cache.stats()
        assert stats.build_failures == 1
        # "b", "a" and "c" built once each ("c" failing); the waiters hit.
        assert stats.misses == 3

