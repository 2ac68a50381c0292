"""Unit tests for the fault-tolerance layer (repro.runtime.resilience).

The process-level behaviour (real worker kills, pool rebuilds, inline
demotion) lives in tests/chaos/; these tests pin the pure pieces — the
retry schedule, the resource guards, the failure report schema, the
fault-plan parser and arrival counters, and deadline supervision over a
fake result handle.
"""

import multiprocessing
import random
from types import SimpleNamespace

import pytest

from repro.core.errors import (
    EvaluationError,
    ReproError,
    ResourceLimitError,
    TaskDeadlineError,
    WorkerCrashError,
)
from repro.runtime.resilience import (
    RESILIENCE_METRICS,
    FailureReport,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResourceBudget,
    RetryPolicy,
    SupervisedPool,
    install_fault_plan,
    clear_fault_plan,
    maybe_fault,
    resilience_metrics_snapshot,
    supervised_get,
)


class TestErrorTaxonomy:
    def test_typed_errors_are_repro_errors(self):
        assert issubclass(ResourceLimitError, EvaluationError)
        assert issubclass(WorkerCrashError, EvaluationError)
        # A deadline miss is indistinguishable from a dead worker, so
        # callers catching crashes catch deadlines too.
        assert issubclass(TaskDeadlineError, WorkerCrashError)

    def test_injected_fault_is_not_a_repro_error(self):
        # Injected faults model *transient* infrastructure failure: the
        # supervisors must retry them, and ReproError is exactly the
        # never-retry (deterministic) subtree.
        assert not issubclass(InjectedFault, ReproError)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_delay_doubles_then_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        rng = policy.rng()
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3, 4, 5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.4, 0.4])

    def test_seeded_jitter_is_reproducible(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=42)
        first = [policy.delay(k, policy.rng()) for k in (1, 2, 3)]
        second = [policy.delay(k, policy.rng()) for k in (1, 2, 3)]
        assert first == second
        base = RetryPolicy(base_delay=0.1, jitter=0.0).delay(1, random.Random())
        assert first[0] >= base

    def test_rejects_non_positive_attempt(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay(0, random.Random())


class TestResourceBudget:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_document_chars"):
            ResourceBudget(max_document_chars=0)
        with pytest.raises(ValueError, match="max_arena_cells"):
            ResourceBudget(max_arena_cells=-1)

    def test_document_guard(self):
        budget = ResourceBudget(max_document_chars=5)
        budget.check_document("12345")  # at the cap: fine
        with pytest.raises(ResourceLimitError, match="6 characters"):
            budget.check_document("123456")

    def test_result_guard_reads_cell_nodes(self):
        class FakeArena:
            cell_nodes = [0] * 10

        ResourceBudget(max_arena_cells=10).check_result(FakeArena())
        with pytest.raises(ResourceLimitError, match="10 list cells"):
            ResourceBudget(max_arena_cells=9).check_result(FakeArena())

    def test_results_without_an_arena_pass(self):
        ResourceBudget(max_arena_cells=1).check_result(object())

    def test_trips_are_counted(self):
        before = resilience_metrics_snapshot()["resource_limit_trips"]
        with pytest.raises(ResourceLimitError):
            ResourceBudget(max_document_chars=1).check_document("xx")
        after = resilience_metrics_snapshot()["resource_limit_trips"]
        assert after == before + 1


class TestFailureReport:
    def test_schema(self):
        report = FailureReport()
        assert len(report) == 0
        report.quarantine("doc-7", "guard", ResourceLimitError("too big"))
        report.task_retried()
        report.pool_rebuilt()
        report.inline_fallback()
        payload = report.as_dict()
        assert payload["quarantined"] == [
            {
                "doc_id": "doc-7",
                "stage": "guard",
                "error_type": "ResourceLimitError",
                "message": "too big",
                "attempts": 1,
            }
        ]
        assert payload["counters"] == {
            "tasks_retried": 1,
            "worker_crashes": 0,
            "deadlines_exceeded": 0,
            "pool_rebuilds": 1,
            "inline_fallbacks": 1,
            "documents_quarantined": 1,
        }
        assert len(report) == 1
        assert report.quarantined[0].doc_id == "doc-7"

    def test_quarantine_mirrors_into_process_metrics(self):
        before = resilience_metrics_snapshot()["documents_quarantined"]
        FailureReport().quarantine("d", "evaluate", RuntimeError("x"))
        after = resilience_metrics_snapshot()["documents_quarantined"]
        assert after == before + 1


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nope", action="raise")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="task", action="explode")
        with pytest.raises(ValueError, match="nth"):
            FaultSpec(site="task", action="raise", nth=0)
        with pytest.raises(ValueError, match="count"):
            FaultSpec(site="task", action="raise", count=0)

    def test_from_json_accepts_object_or_list(self):
        single = FaultPlan.from_json('{"site": "task", "action": "raise"}')
        assert len(single.specs) == 1
        many = FaultPlan.from_json(
            '[{"site": "task", "action": "raise"},'
            ' {"site": "evaluate", "action": "delay", "seconds": 0.01}]'
        )
        assert [spec.site for spec in many.specs] == ["task", "evaluate"]

    @pytest.mark.parametrize(
        "text, match",
        [
            ("nonsense", "not valid JSON"),
            ('"task"', "must be a JSON list"),
            ("[42]", "fault #0 must be an object"),
            ('[{"site": "task", "action": "raise", "when": 3}]', "unknown keys"),
            ('[{"action": "raise"}]', "fault #0"),
            ('[{"site": "bad", "action": "raise"}]', "unknown fault site"),
        ],
    )
    def test_from_json_rejects_malformed_plans(self, text, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.from_json(text)

    def test_arrival_window_fires_deterministically(self):
        plan = FaultPlan([FaultSpec(site="task", action="raise", nth=2, count=2)])
        plan.fire("task")  # arrival 1: below the window
        for _ in range(2):  # arrivals 2 and 3: inside it
            with pytest.raises(InjectedFault, match="site 'task'"):
                plan.fire("task")
        plan.fire("task")  # arrival 4: past it
        assert plan.arrivals("task") == 4
        assert plan.arrivals("evaluate") == 0

    def test_sites_count_independently(self):
        plan = FaultPlan([FaultSpec(site="evaluate", action="raise", nth=1)])
        plan.fire("task")
        with pytest.raises(InjectedFault):
            plan.fire("evaluate")

    def test_delay_action_sleeps_without_raising(self):
        plan = FaultPlan(
            [FaultSpec(site="task", action="delay", nth=1, seconds=0.0)]
        )
        plan.fire("task")  # must simply return

    def test_hook_is_inert_without_an_installed_plan(self):
        clear_fault_plan()
        maybe_fault("task")  # no plan: no-op

    def test_install_and_clear(self):
        plan = FaultPlan([FaultSpec(site="task", action="raise", nth=1)])
        install_fault_plan(plan)
        try:
            with pytest.raises(InjectedFault):
                maybe_fault("task")
        finally:
            clear_fault_plan()
        maybe_fault("task")


class _FakeHandle:
    """An AsyncResult standing in for a task that never completes."""

    def __init__(self, results=()):
        self._results = list(results)

    def get(self, timeout=None):
        if self._results:
            return self._results.pop(0)
        raise multiprocessing.TimeoutError


class _FakePool:
    """Just the worker list :func:`_pids_of` reads from a real pool."""

    def __init__(self, *pids):
        self._pool = [SimpleNamespace(pid=pid) for pid in pids]


class TestSupervisedGet:
    def test_returns_a_ready_result(self):
        assert supervised_get(
            _FakeHandle(["ok"]), deadline=None, known_pids=frozenset()
        ) == "ok"

    def test_deadline_miss_is_typed_and_counted(self):
        report = FailureReport()
        before = resilience_metrics_snapshot()["deadlines_exceeded"]
        with pytest.raises(TaskDeadlineError, match="deadline"):
            supervised_get(
                _FakeHandle(),
                deadline=0.05,
                known_pids=frozenset(),
                report=report,
                poll=0.01,
            )
        assert resilience_metrics_snapshot()["deadlines_exceeded"] == before + 1
        assert report.as_dict()["counters"]["deadlines_exceeded"] == 1

    def test_no_deadline_keeps_polling(self):
        class Eventually:
            calls = 0

            def get(self, timeout=None):
                Eventually.calls += 1
                if Eventually.calls < 3:
                    raise multiprocessing.TimeoutError
                return "late"

        assert supervised_get(
            Eventually(), deadline=None, known_pids=frozenset(), poll=0.001
        ) == "late"

    def test_stale_pid_set_is_a_crash_on_the_first_poll(self):
        # The worker set recorded at submit no longer matches the pool's:
        # a worker died and was respawned before the wait began.  That is
        # reported at the first poll, not after the (long) deadline.
        report = FailureReport()
        with pytest.raises(WorkerCrashError, match="worker died"):
            supervised_get(
                _FakeHandle(),
                deadline=300.0,
                known_pids=frozenset({1}),
                raw_pool=_FakePool(2),
                report=report,
                poll=0.01,
            )
        assert report.as_dict()["counters"]["worker_crashes"] == 1

    def test_a_gained_worker_alone_is_not_a_crash(self):
        # Every known pid is still alive; the extra one is a respawn
        # whose death was already accounted for.
        with pytest.raises(TaskDeadlineError):
            supervised_get(
                _FakeHandle(),
                deadline=0.03,
                known_pids=frozenset({1}),
                raw_pool=_FakePool(1, 2),
                poll=0.01,
            )


class TestMetricsSnapshot:
    def test_snapshot_keys_and_reset(self):
        snapshot = RESILIENCE_METRICS.snapshot()
        assert set(snapshot) == {
            "tasks_retried",
            "worker_crashes",
            "deadlines_exceeded",
            "pool_rebuilds",
            "inline_fallbacks",
            "documents_quarantined",
            "resource_limit_trips",
        }
        RESILIENCE_METRICS.task_retried()
        assert RESILIENCE_METRICS.snapshot()["tasks_retried"] >= 1
        RESILIENCE_METRICS.reset()
        assert all(value == 0 for value in RESILIENCE_METRICS.snapshot().values())


def _no_setup():
    return lambda: None


class TestSupervisedPoolLifecycle:
    def test_failed_rebuild_leaves_the_pool_closed(self, monkeypatch):
        # The old workers are gone before the restart is attempted, so a
        # restart that cannot fork must not leave a dead pool in place:
        # later tasks would be submitted to terminated workers.
        pool = SupervisedPool(
            1, initializer=_no_setup, initargs=(), inline_setup=_no_setup
        )
        try:
            def cannot_fork():
                raise OSError("cannot fork")

            monkeypatch.setattr(pool, "_start", cannot_fork)
            with pytest.raises(OSError, match="cannot fork"):
                pool._rebuild()
            assert not pool.demoted
            # Tasks still run, inline, exactly.
            assert pool.collect(pool.submit(abs, -3)) == 3
        finally:
            pool.terminate()

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(EvaluationError, match="worker count must be positive"):
            SupervisedPool(
                0, initializer=_no_setup, initargs=(), inline_setup=_no_setup
            )

    def test_del_swallows_shutdown_errors_but_logs_real_bugs(self, caplog):
        import logging

        class ExplodingPool(SupervisedPool):
            def __init__(self, error):
                # Bypass worker startup; __del__ only ever calls
                # terminate(), and only while a pool is live.
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


class TestOneExecutor:
    def test_only_the_supervised_pool_touches_a_process_pool(self):
        # Every pooled path runs on SupervisedPool, so its crash ladder is
        # the only one: a second pool wrapper would need its own death
        # accounting and shutdown rules, which is how they drift apart.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = [
            f"{path.relative_to(root).as_posix()}: {needle}"
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root).as_posix() != "runtime/resilience.py"
            for needle in ("apply_async(", ".Pool(")
            if needle in path.read_text(encoding="utf-8")
        ]
        assert offenders == []
