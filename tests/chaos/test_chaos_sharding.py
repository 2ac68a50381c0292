"""Chaos tests: shard-parallel evaluation under injected worker faults.

Sharded runs use the batch ladder (retry → rebuild once → demote inline)
of the one supervised pool, so the arena stays bit-identical whichever
rung produced each shard.
"""

import time
from dataclasses import replace

import pytest

from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.runtime.sharding import count_sharded, evaluate_sharded, start_shard_pool
from repro.spanners.spanner import Spanner

LOG_PATTERN = r".*ERROR worker-w{[0-9]} .*"
LOG_TEXT = (
    "2024-03-09 03:45:14 INFO worker-1 ok\n"
    "2024-03-09 03:45:15 ERROR worker-5 timeout after 30s\n"
    "2024-03-09 03:45:16 INFO worker-2 ok\n"
) * 40

#: The production task deadline: a dead shard worker must be noticed at a
#: poll, not after the deadline, so recovery is bounded either way.
SHORT_DEADLINE = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=2, base_delay=0.01, seed=3), task_deadline=300.0
)

#: Seconds a kill-storm run may take to recover (detect each death,
#: retry, rebuild once, demote inline) — far below the task deadline.
RECOVERY_SECONDS = 2.0


@pytest.fixture(scope="module")
def compiled():
    spanner = Spanner.from_regex(LOG_PATTERN)
    return spanner._runtime_for_key(spanner._alphabet_key(LOG_TEXT))


@pytest.fixture(scope="module")
def serial_arena(compiled):
    return evaluate_compiled_arena(compiled, LOG_TEXT)


def test_shard_worker_kill_falls_back_inline_bit_identical(compiled, serial_arena):
    plan = FaultPlan(
        [FaultSpec(site="shard-task", action="kill", nth=1, count=10**6)]
    )
    pool = start_shard_pool(compiled, 2, policy=replace(SHORT_DEADLINE, faults=plan))
    try:
        started = time.monotonic()
        arena = evaluate_sharded(compiled, LOG_TEXT, pool=pool, shards=4)
        elapsed = time.monotonic() - started
        assert arena.to_portable() == serial_arena.to_portable()
        assert elapsed < RECOVERY_SECONDS, f"recovery took {elapsed:.1f}s"
        # Every worker dies, so the ladder ends demoted: the facade's
        # next call rebuilds the pool instead of reusing it.
        assert pool.demoted and pool.closed
    finally:
        pool.close()


def test_shard_worker_raise_reruns_inline_bit_identical(compiled, serial_arena):
    plan = FaultPlan(
        [FaultSpec(site="shard-task", action="raise", nth=1, count=10**6)]
    )
    pool = start_shard_pool(compiled, 2, policy=replace(SHORT_DEADLINE, faults=plan))
    try:
        arena = evaluate_sharded(compiled, LOG_TEXT, pool=pool, shards=4)
        assert arena.to_portable() == serial_arena.to_portable()
        # A worker that *answers* (with an exception) leaves the pool
        # healthy: the failed tasks rerun inline, the pool stays open.
        assert not pool.demoted and not pool.closed
    finally:
        pool.close()


def test_shard_worker_delay_past_deadline_falls_back(compiled, serial_arena):
    plan = FaultPlan(
        [
            FaultSpec(
                site="shard-task", action="delay", nth=1, count=10**6, seconds=1.0
            )
        ]
    )
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0),
        task_deadline=0.2,
        faults=plan,
    )
    pool = start_shard_pool(compiled, 2, policy=policy)
    try:
        arena = evaluate_sharded(compiled, LOG_TEXT, pool=pool, shards=4)
        assert arena.to_portable() == serial_arena.to_portable()
        assert pool.demoted and pool.closed
    finally:
        pool.close()


def test_count_sharded_survives_kills(compiled):
    expected = count_compiled(compiled, LOG_TEXT)
    plan = FaultPlan(
        [FaultSpec(site="shard-task", action="kill", nth=1, count=10**6)]
    )
    pool = start_shard_pool(compiled, 2, policy=replace(SHORT_DEADLINE, faults=plan))
    try:
        started = time.monotonic()
        total = count_sharded(compiled, LOG_TEXT, pool=pool, shards=4)
        elapsed = time.monotonic() - started
        assert total == expected
        assert elapsed < RECOVERY_SECONDS, f"recovery took {elapsed:.1f}s"
    finally:
        pool.close()


def test_inline_sharded_run_ignores_parent_fault_plan(compiled, serial_arena):
    # A pool-less sharded run executes in the parent; an installed plan
    # must not leak into it through the inline task runner (the inline
    # path is the exactness backstop and clears the plan around each
    # task).  The plan *does* apply to direct evaluation in this
    # process, which is why a pooled run is used for injection instead.
    from repro.runtime import resilience

    plan = FaultPlan([FaultSpec(site="shard-task", action="raise", nth=1)])
    resilience.install_fault_plan(plan)
    try:
        with pytest.raises(InjectedFault):
            resilience.maybe_fault("shard-task")
    finally:
        resilience.clear_fault_plan()
