"""Chaos-suite fixtures: every test runs under an explicit wall-clock bound.

The whole point of the fault-tolerance layer is that supervised runs
*never hang*; a regression here would otherwise turn into a CI timeout
with no traceback.  The alarm fires well past any expected runtime, so a
trip always means a genuine supervision bug.
"""

import signal

import pytest

from repro.runtime.resilience import RESILIENCE_METRICS

#: Per-test wall-clock bound (seconds).  Generous: the slowest chaos
#: scenario (retries + a pool rebuild + inline demotion) completes in a
#: few seconds on a loaded machine, and a dead worker is noticed within
#: a poll interval rather than after the task deadline.
CHAOS_DEADLINE = 60


@pytest.fixture(autouse=True)
def chaos_deadline():
    def on_alarm(signum, frame):
        raise TimeoutError(
            f"chaos test exceeded its {CHAOS_DEADLINE}s deadline — a "
            "supervised execution hung, which the resilience layer must "
            "never allow"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(CHAOS_DEADLINE)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def clean_metrics():
    """A zeroed process-wide counter set, restored-by-reset afterwards."""
    RESILIENCE_METRICS.reset()
    yield RESILIENCE_METRICS
    RESILIENCE_METRICS.reset()
