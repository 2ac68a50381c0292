"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module reproduces one experiment of ``DESIGN.md`` §5 (B1–B8).
The pytest-benchmark tables give the raw timings; the companion script
``benchmarks/report.py`` re-runs the same workloads standalone and prints the
scaling tables recorded in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import pytest

from repro.spanners.spanner import Spanner
from repro.workloads.documents import contact_document
from repro.workloads.spanners import contact_pattern


@pytest.fixture(scope="session")
def contact_spanner() -> Spanner:
    """The Example 2.1 spanner, compiled once per session."""
    spanner = Spanner.from_regex(contact_pattern())
    # Compile up front (once per pattern), outside every timed region.
    spanner.compiled(contact_document(5, seed=0))
    return spanner


@pytest.fixture(scope="session")
def contact_documents() -> dict[int, object]:
    """Contact documents of increasing size, shared across benchmarks."""
    return {records: contact_document(records, seed=7) for records in (25, 50, 100, 200)}
