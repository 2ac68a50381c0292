"""Chaos tests: batch evaluation under injected kills, raises and delays.

Every scenario pins the layer's one contract — **exactness or a typed
error**: whatever faults are injected, a supervised batch either yields
results bit-identical to the serial engine or records the affected
documents in its failure report.  No hangs (the suite-wide alarm in
conftest.py), no tracebacks, no silently dropped documents.

Workers are kept at 1 so the per-process fault arrival counters are
deterministic: with a single worker the sequence of task arrivals — and
therefore of injected faults — is a pure function of the plan.
"""

import os
import time

import pytest

from repro.core.documents import DocumentCollection
from repro.core.errors import ResourceLimitError
from repro.runtime import resilience
from repro.runtime.resilience import (
    RESILIENCE_METRICS,
    FailureReport,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    KILL_EXIT_STATUS,
    ResourceBudget,
    SupervisedPool,
)
from repro.spanners.spanner import Spanner

PATTERN = ".*x{a+} .*"


@pytest.fixture(autouse=True)
def fast_retry(monkeypatch):
    """Two tries per task, backing off from 10ms.

    The pool is given 20s per task — far past any healthy task here, so
    a deadline trip is always deliberate.
    """
    monkeypatch.setattr(resilience, "RETRY_ATTEMPTS", 2)
    monkeypatch.setattr(resilience, "RETRY_BASE_DELAY", 0.01)
    monkeypatch.setattr(resilience, "RETRY_MAX_DELAY", 0.05)


@pytest.fixture(scope="module")
def spanner():
    return Spanner.from_regex(PATTERN)


@pytest.fixture(scope="module")
def documents():
    return DocumentCollection(
        {f"doc{index}": "aa bb aaa cc " * (index + 1) for index in range(8)}
    )


@pytest.fixture(scope="module")
def serial_results(spanner, documents):
    return {doc_id: result.to_portable() for doc_id, result in spanner.run_batch(documents)}


def run_supervised(spanner, documents, policy, report, **kwargs):
    """Run a supervised batch; every ladder event must land in both stores.

    The process-wide counters are reset first, so afterwards they must
    equal the run's report — one recording call feeds both.  Resource
    limit trips are counted where they happen and the report has none.
    """
    kwargs.setdefault("mode", "processes")
    kwargs.setdefault("max_workers", 1)
    kwargs.setdefault("chunk_size", 2)
    RESILIENCE_METRICS.reset()
    results = {
        doc_id: result.to_portable()
        for doc_id, result in spanner.run_batch(
            documents, policy=policy, report=report, **kwargs
        )
    }
    process_wide = RESILIENCE_METRICS.snapshot()
    del process_wide["resource_limit_trips"]
    assert process_wide == report.as_dict()["counters"]
    return results


def _no_setup(*_args):
    pass


def _die_once(args):
    """Kill the worker the first time *marker* is seen, else sleep and echo."""
    marker, value, seconds = args
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(KILL_EXIT_STATUS)
    time.sleep(seconds)
    return value


def policy_with(faults, **overrides):
    overrides.setdefault("task_deadline", 20.0)
    return ResiliencePolicy(faults=faults, **overrides)


class TestInjectedRaise:
    def test_first_task_raise_is_retried_to_exact_results(
        self, spanner, documents, serial_results
    ):
        report = FailureReport()
        plan = FaultPlan([FaultSpec(site="task", action="raise", nth=1)])
        results = run_supervised(spanner, documents, policy_with(plan), report)
        assert results == serial_results
        counters = report.as_dict()["counters"]
        assert counters["tasks_retried"] >= 1
        assert counters["documents_quarantined"] == 0

    def test_evaluate_site_raise_is_retried_to_exact_results(
        self, spanner, documents, serial_results
    ):
        report = FailureReport()
        plan = FaultPlan([FaultSpec(site="evaluate", action="raise", nth=1)])
        results = run_supervised(spanner, documents, policy_with(plan), report)
        assert results == serial_results
        assert report.as_dict()["counters"]["tasks_retried"] >= 1

    def test_encode_site_raise_is_retried_to_exact_results(
        self, spanner, documents, serial_results
    ):
        report = FailureReport()
        plan = FaultPlan([FaultSpec(site="encode", action="raise", nth=1)])
        results = run_supervised(spanner, documents, policy_with(plan), report)
        assert results == serial_results
        assert report.as_dict()["counters"]["tasks_retried"] >= 1

    def test_persistent_raise_isolates_inline_and_stays_exact(
        self, spanner, documents, serial_results
    ):
        # The worker answers (so the pool is healthy) but every task
        # raises: after the retry budget each task is isolated inline —
        # where the plan is never installed — and the results stay exact.
        report = FailureReport()
        plan = FaultPlan(
            [FaultSpec(site="task", action="raise", nth=1, count=10**6)]
        )
        results = run_supervised(spanner, documents, policy_with(plan), report)
        assert results == serial_results
        assert report.as_dict()["counters"]["inline_fallbacks"] >= 1
        assert len(report) == 0


class TestWorkerKill:
    def test_kill_on_second_arrival_recovers_exactly(
        self, spanner, documents, serial_results, clean_metrics
    ):
        # Each worker survives its first task and dies on its second; the
        # lost task is detected via the pid-set change and resubmitted
        # (a respawned worker's arrival counter restarts at zero).  The
        # escalation ladder may or may not spend its pool rebuild along
        # the way — what is pinned is that no document is lost and the
        # results are bit-identical.  Under the production task deadline
        # the run must not sit out those 300 s: a worker that dies and is
        # respawned before its task is waited on is noticed at once.
        report = FailureReport()
        plan = FaultPlan([FaultSpec(site="task", action="kill", nth=2, count=1)])
        started = time.monotonic()
        results = run_supervised(
            spanner, documents, policy_with(plan, task_deadline=300.0), report
        )
        elapsed = time.monotonic() - started
        assert results == serial_results
        counters = report.as_dict()["counters"]
        # Several workers die here, how many depends on scheduling; the
        # exact one-death accounting is pinned by the test below.
        assert counters["worker_crashes"] >= 1
        assert counters["documents_quarantined"] == 0
        assert clean_metrics.snapshot()["worker_crashes"] >= 1
        assert elapsed < 5.0, f"crash recovery took {elapsed:.1f}s"

    def test_one_death_is_counted_once_across_in_flight_tasks(self, tmp_path):
        # Two workers: one dies on the first task, the other is still busy
        # with the second when it is collected.  That task was submitted
        # before the death, so it may have been lost with it and is
        # resubmitted — but the one death is one crash and one retry, not
        # one per task that was in flight when it happened.
        report = FailureReport()
        pool = SupervisedPool(
            2,
            initializer=_no_setup,
            initargs=(),
            inline_setup=lambda: _no_setup,
            policy=ResiliencePolicy(task_deadline=300.0),
            report=report,
        )
        marker = str(tmp_path / "died")
        try:
            first = pool.submit(_die_once, (marker, "a", 0.0))
            second = pool.submit(_die_once, (None, "b", 1.0))
            results = [pool.collect(first), pool.collect(second)]
        finally:
            pool.terminate()
        assert results == ["a", "b"]
        counters = report.as_dict()["counters"]
        assert counters["worker_crashes"] == 1
        assert counters["tasks_retried"] == 1
        assert counters["pool_rebuilds"] == 0

    def test_kill_storm_rebuilds_once_then_demotes_inline(
        self, spanner, documents, serial_results
    ):
        # Every task kills its worker: retries exhaust, the one pool
        # rebuild is spent (the fresh pool kills too), and the run is
        # demoted to inline serial evaluation — results exactly match.
        report = FailureReport()
        plan = FaultPlan(
            [FaultSpec(site="task", action="kill", nth=1, count=10**6)]
        )
        results = run_supervised(spanner, documents, policy_with(plan), report)
        assert results == serial_results
        counters = report.as_dict()["counters"]
        assert counters["pool_rebuilds"] == 1
        assert counters["inline_fallbacks"] >= 1
        assert counters["documents_quarantined"] == 0


class TestDeadline:
    def test_delay_past_deadline_falls_back_exactly(
        self, spanner, documents, serial_results, monkeypatch
    ):
        # Every task dawdles past the deadline; the supervisor treats the
        # misses as crashes, spends the rebuild, then demotes inline.
        monkeypatch.setattr(resilience, "RETRY_ATTEMPTS", 1)
        report = FailureReport()
        plan = FaultPlan(
            [FaultSpec(site="task", action="delay", nth=1, count=10**6, seconds=1.0)]
        )
        policy = policy_with(plan, task_deadline=0.2)
        results = run_supervised(spanner, documents, policy, report)
        assert results == serial_results
        counters = report.as_dict()["counters"]
        assert counters["deadlines_exceeded"] >= 1
        assert counters["inline_fallbacks"] >= 1


class TestQuarantine:
    @pytest.fixture
    def mixed(self):
        docs = {f"doc{index}": "aa bb aaa cc " * (index + 1) for index in range(4)}
        docs["poison"] = "a" * 500
        docs["doc9"] = "aa cc"
        return DocumentCollection(docs)

    @pytest.mark.parametrize("mode", ["serial", "processes"])
    def test_oversized_document_is_quarantined_not_fatal(self, spanner, mixed, mode):
        report = FailureReport()
        policy = ResiliencePolicy(
            task_deadline=20.0,
            quarantine=True,
            budget=ResourceBudget(max_document_chars=400),
        )
        kwargs = {"mode": mode}
        if mode == "processes":
            kwargs.update(max_workers=1, chunk_size=2)
        results = dict(spanner.run_batch(mixed, policy=policy, report=report, **kwargs))
        assert "poison" not in results
        assert set(results) == set(mixed.ids()) - {"poison"}
        healthy = {doc_id: r.to_portable() for doc_id, r in results.items()}
        serial = {
            doc_id: r.to_portable()
            for doc_id, r in spanner.run_batch(mixed)
            if doc_id != "poison"
        }
        assert healthy == serial
        [record] = report.quarantined
        assert record.doc_id == "poison"
        assert record.stage == "guard"
        assert record.error_type == "ResourceLimitError"

    def test_without_quarantine_the_guard_error_is_typed_and_fatal(
        self, spanner, mixed
    ):
        policy = ResiliencePolicy(
            task_deadline=20.0,
            budget=ResourceBudget(max_document_chars=400),
        )
        with pytest.raises(ResourceLimitError, match="exceeds the per-document"):
            dict(
                spanner.run_batch(
                    mixed, mode="processes", max_workers=1, policy=policy
                )
            )


class TestEncodeSite:
    def test_encode_fault_fires_on_every_run(self, spanner):
        # The "encode" site sits in the one pass every encoding runs, so
        # a persistent raise there quarantines every document the
        # compiled engine encodes.  Fresh documents: a cached encoding
        # would never reach the site.
        documents = DocumentCollection(
            {f"doc{index}": "aa bb aaa cc " * (index + 1) for index in range(4)}
        )
        report = FailureReport()
        plan = FaultPlan(
            [FaultSpec(site="encode", action="raise", nth=1, count=10**6)]
        )
        results = run_supervised(
            spanner,
            documents,
            ResiliencePolicy(quarantine=True, faults=plan),
            report,
            mode="serial",
            engine="compiled",
        )
        assert results == {}
        assert [record.doc_id for record in report.quarantined] == list(
            documents.ids()
        )
        assert {record.error_type for record in report.quarantined} == {
            "InjectedFault"
        }


class TestFaultPlanDeterminism:
    def test_same_plan_same_counters(self, spanner, documents, serial_results):
        plan_spec = [FaultSpec(site="task", action="raise", nth=1, count=2)]
        counter_runs = []
        for _ in range(2):
            report = FailureReport()
            results = run_supervised(
                spanner, documents, policy_with(FaultPlan(plan_spec)), report
            )
            assert results == serial_results
            counter_runs.append(report.as_dict()["counters"])
        assert counter_runs[0] == counter_runs[1]
