"""Unit tests for the shard-parallel engine and its integration points.

The arena-for-arena equivalence lives in the property suite
(``tests/property/test_sharding_equivalence.py``) and the shared harness;
this module pins the mechanics around it: shard planning, unreachable
shard skipping, metrics, worker pools and slice-only pickling, the plan
axis, the facade's threshold routing, the batch engine's mixed-size
path, and the CLI flag.
"""

import pickle

import pytest

from harness import assert_arena_identical

from repro import Spanner
from repro.core.documents import Document, DocumentCollection
from repro.core.errors import EvaluationError
from repro.runtime.batch import run_batch
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.plan import ExecutionPlan, choose_plan
from repro.runtime.sharding import (
    SHARD_METRICS,
    ShardMetrics,
    count_sharded,
    evaluate_sharded,
    plan_shards,
    replay_shard,
    shard_summary,
    start_shard_pool,
)
from repro.server.metrics import ServerMetrics

LOG_PATTERN = r".*ERROR worker-w{[0-9]} .*"
LOG_TEXT = (
    "2024-03-09 03:45:14 INFO worker-1 ok\n"
    "2024-03-09 03:45:15 ERROR worker-5 timeout after 30s\n"
    "2024-03-09 03:45:16 INFO worker-2 ok\n"
) * 40


def _runtime(pattern: str, text: str):
    spanner = Spanner.from_regex(pattern)
    return spanner._runtime_for_key(spanner._alphabet_key(text))


# ---------------------------------------------------------------------- #
# Shard planning
# ---------------------------------------------------------------------- #


def test_plan_shards_covers_range_without_gaps():
    for length in (1, 2, 7, 100, 101):
        for shards in (1, 2, 3, 7, length, length + 5):
            bounds = plan_shards(length, shards)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == length
            for (_, previous_end), (begin, _) in zip(bounds, bounds[1:]):
                assert previous_end == begin
            sizes = [end - begin for begin, end in bounds]
            assert max(sizes) - min(sizes) <= 1
            assert len(bounds) == min(shards, length)


def test_plan_shards_empty_document_is_one_empty_shard():
    assert plan_shards(0, 4) == [(0, 0)]


def test_plan_shards_rejects_nonpositive_counts():
    with pytest.raises(EvaluationError):
        plan_shards(10, 0)


# ---------------------------------------------------------------------- #
# Unreachable shards, metrics, dead runs
# ---------------------------------------------------------------------- #


def test_unreachable_shards_are_skipped_and_counted():
    # No wildcard: the foreign tail kills every run in the first shard,
    # so the remaining shards are provably unreachable.
    runtime = _runtime("x{a}b", "ab" + "z" * 98)
    metrics = ShardMetrics()
    arena = evaluate_sharded(
        runtime, "ab" + "z" * 98, shards=10, metrics=metrics
    )
    serial = evaluate_compiled_arena(runtime, "ab" + "z" * 98)
    assert_arena_identical(arena, serial)
    snapshot = metrics.snapshot()
    assert snapshot["documents_sharded"] == 1
    assert snapshot["shards_planned"] == 10
    assert snapshot["shards_skipped_unreachable"] > 0
    assert (
        snapshot["shards_evaluated"] + snapshot["shards_skipped_unreachable"]
        == snapshot["shards_planned"]
    )


def test_metrics_record_time_split_and_reset():
    metrics = ShardMetrics()
    runtime = _runtime(LOG_PATTERN, LOG_TEXT)
    evaluate_sharded(runtime, LOG_TEXT, shards=4, metrics=metrics)
    snapshot = metrics.snapshot()
    assert snapshot["summary_seconds"] > 0.0
    assert snapshot["replay_seconds"] > 0.0
    metrics.reset()
    assert metrics.snapshot()["documents_sharded"] == 0


def test_server_metrics_snapshot_embeds_sharding_counters():
    payload = ServerMetrics().snapshot()
    assert "sharding" in payload
    for key in (
        "shards_evaluated",
        "shards_skipped_unreachable",
        "summary_seconds",
        "replay_seconds",
    ):
        assert key in payload["sharding"]


def test_count_sharded_on_dead_document_is_zero():
    runtime = _runtime("x{a}b", "zzzzzzzz")
    assert count_sharded(runtime, "zzzzzzzz", shards=4) == 0


# ---------------------------------------------------------------------- #
# Replay and fragment mechanics
# ---------------------------------------------------------------------- #


def test_replay_first_shard_requires_initial_entry():
    runtime = _runtime("x{a}b", "ab")
    encoded = runtime.encode("ab")
    bad_entry = (runtime.initial + 1) % runtime.num_states
    with pytest.raises(EvaluationError):
        replay_shard(
            runtime,
            encoded.buffer,
            encoded.length,
            0,
            (bad_entry,),
            is_first=True,
            is_last=True,
        )


def test_fragments_and_summaries_pickle():
    runtime = _runtime(LOG_PATTERN, LOG_TEXT)
    encoded = runtime.encode(LOG_TEXT)
    half = encoded.length // 2
    summary = shard_summary(runtime, encoded.buffer[:half], half)
    assert pickle.loads(pickle.dumps(summary)) == summary
    fragment = replay_shard(
        runtime,
        encoded.buffer[:half],
        half,
        0,
        (runtime.initial,),
        is_first=True,
        is_last=False,
    )
    clone = pickle.loads(pickle.dumps(fragment))
    assert clone.cell_nexts == fragment.cell_nexts
    assert clone.exit_states == fragment.exit_states


def test_shard_tasks_ship_buffer_slices_not_documents():
    # A pickled Document drops its encoding cache (by design), so the
    # orchestrator must never put one on the wire: slicing the encoded
    # buffer is both smaller and cache-preserving.
    document = Document(LOG_TEXT)
    runtime = _runtime(LOG_PATTERN, LOG_TEXT)
    runtime.encode(document)
    assert document.cached_encodings() == 1
    revived = pickle.loads(pickle.dumps(document))
    assert revived.cached_encodings() == 0  # the cache never travels
    encoded = runtime.encode(document)
    half = encoded.length // 2
    slice_ = encoded.buffer[:half]
    assert isinstance(slice_, (bytes, type(encoded.buffer)))
    assert pickle.loads(pickle.dumps(slice_)) == slice_


# ---------------------------------------------------------------------- #
# The worker pool
# ---------------------------------------------------------------------- #


def test_shard_pool_end_to_end_bit_identity():
    runtime = _runtime(LOG_PATTERN, LOG_TEXT)
    serial = evaluate_compiled_arena(runtime, LOG_TEXT)
    pool = start_shard_pool(runtime, 2)
    try:
        arena = evaluate_sharded(runtime, LOG_TEXT, pool=pool, shards=4)
        total = count_sharded(runtime, LOG_TEXT, pool=pool, shards=4)
        assert not pool.closed
    finally:
        pool.close()
    assert_arena_identical(arena, serial)
    assert total == count_compiled(runtime, LOG_TEXT)
    assert pool.closed


def test_shard_pool_rejects_nonpositive_workers():
    runtime = _runtime("x{a}b", "ab")
    with pytest.raises(EvaluationError):
        start_shard_pool(runtime, 0)


def test_shard_pool_del_swallows_shutdown_errors_but_logs_real_bugs(caplog):
    import logging

    from repro.runtime.resilience import SupervisedPool

    class ExplodingPool(SupervisedPool):
        def __init__(self, error):
            # Bypass worker startup; __del__ only ever calls terminate(),
            # and only while a pool is live.
            self._pool = object()
            self._error = error

        def terminate(self):
            raise self._error

    with caplog.at_level(logging.ERROR, logger="repro.runtime.resilience"):
        # The interpreter-shutdown family is expected noise: swallowed.
        for error in (OSError(), ValueError(), RuntimeError(), TypeError()):
            ExplodingPool(error).__del__()
        assert not caplog.records
        # Anything else is a real bug: logged, never raised.
        ExplodingPool(KeyError("boom")).__del__()
    assert any(
        "unexpected error" in record.getMessage() for record in caplog.records
    )


# ---------------------------------------------------------------------- #
# The plan axis
# ---------------------------------------------------------------------- #


def test_choose_plan_shard_workers_resolves_to_compiled():
    plan = choose_plan(engine="auto", shard_workers=3)
    assert plan.engine == "compiled"
    assert plan.shard_workers == 3
    assert "shard" in plan.reason


def test_choose_plan_rejects_sharding_other_engines():
    for engine in ("reference", "compiled-otf"):
        with pytest.raises(ValueError):
            choose_plan(engine=engine, shard_workers=2)
    with pytest.raises(ValueError):
        choose_plan(engine="compiled", shard_workers=2, streaming=True)
    with pytest.raises(ValueError):
        choose_plan(engine="compiled", shard_workers=0)


def test_execution_plan_validates_shard_workers():
    with pytest.raises(ValueError):
        ExecutionPlan("reference", True, "bad", shard_workers=2)
    with pytest.raises(ValueError):
        ExecutionPlan("compiled", True, "bad", shard_workers=0)
    with pytest.raises(ValueError):
        ExecutionPlan("compiled", True, "bad", streaming=True, shard_workers=2)
    plan = ExecutionPlan("compiled", True, "ok", shard_workers=2)
    assert plan.shard_workers == 2


# ---------------------------------------------------------------------- #
# Facade routing
# ---------------------------------------------------------------------- #


def test_facade_small_document_stays_serial_without_a_pool():
    spanner = Spanner.from_regex("x{a}b")  # default threshold: 32768 chars
    result = spanner.extract("aab", workers=4)
    assert result == spanner.extract("aab")
    state = spanner._state_for_key(spanner._alphabet_key("aab"))
    assert state.shard_pool is None  # never paid the fork cost


def test_facade_workers_route_through_the_pool():
    spanner = Spanner.from_regex(LOG_PATTERN, shard_min_chars=500)
    try:
        serial = spanner.extract(LOG_TEXT)
        assert serial, "fixture must produce matches"
        assert spanner.extract(LOG_TEXT, workers=2) == serial
        assert spanner.count(LOG_TEXT, workers=2) == len(serial)
        key = spanner._alphabet_key(LOG_TEXT)
        pool = spanner._state_for_key(key).shard_pool
        assert pool is not None and pool.workers == 2
        # Same worker count: the pool is reused, not rebuilt.
        spanner.count(LOG_TEXT, workers=2)
        assert spanner._state_for_key(key).shard_pool is pool
    finally:
        spanner.close()
    assert pool.closed


def test_facade_rejects_worker_requests_off_the_compiled_engine():
    spanner = Spanner.from_regex("x{a}b")
    with pytest.raises(ValueError):
        spanner.extract("aab", engine="reference", workers=2)
    with pytest.raises(ValueError):
        spanner.count("aab", workers=0)


# ---------------------------------------------------------------------- #
# Batch integration
# ---------------------------------------------------------------------- #


def test_run_batch_shard_min_chars_validation():
    runtime = _runtime("x{a}b", "ab")
    with pytest.raises(ValueError):
        run_batch(runtime, ["ab"], shard_min_chars=0)
    with pytest.raises(ValueError):
        run_batch(runtime, ["ab"], engine="reference", shard_min_chars=10)
    with pytest.raises(ValueError):
        run_batch(
            runtime, ["ab"], mode="processes", streaming=True, shard_min_chars=10
        )


def test_run_batch_shards_large_documents_in_collection_order():
    collection = DocumentCollection(
        [
            Document("ERROR worker-1 x \n", name="small-a"),
            Document(LOG_TEXT, name="big"),
            Document("nothing here", name="small-b"),
        ]
    )
    spanner = Spanner.from_regex(LOG_PATTERN)
    serial = [(i, r.count()) for i, r in spanner.run_batch(collection)]
    sharded = [
        (i, r.count())
        for i, r in spanner.run_batch(
            collection, mode="processes", max_workers=2, shard_min_chars=1000
        )
    ]
    assert sharded == serial
    assert any(count > 0 for _i, count in serial)
