"""Unit tests for ``tools/check_paper_claims.py`` on synthetic traced runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_paper_claims.py"
_spec = importlib.util.spec_from_file_location("check_paper_claims", TOOL)
check_paper_claims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_paper_claims)

WORKLOADS = ["logs-sparse", "contacts-dense"]
PASSING = {"alg1.linearity": 0.92, "alg2.flatness": 1.03, "compile.cache_misses": 1.0}
SEEDS = len(check_paper_claims.SEEDS)


def traces(overrides: dict | None = None) -> dict:
    """Five passing runs per workload; *overrides* maps a workload to a
    list of per-seed metric overrides (``None`` drops that seed's trace)."""
    runs = {}
    for name in WORKLOADS:
        per_seed = (overrides or {}).get(name, [{}] * SEEDS)
        runs[name] = [None if extra is None else dict(PASSING, **extra) for extra in per_seed]
    return runs


def violations(runs: dict) -> list[str]:
    return check_paper_claims.violations(check_paper_claims.traced_rows(runs))


def test_passing_traces_report_nothing():
    rows = check_paper_claims.traced_rows(traces())
    assert len(rows) == 3 * len(WORKLOADS)
    assert check_paper_claims.violations(rows) == []


def test_one_outlier_seed_passes():
    outlier = [{}, {"alg2.flatness": 2.5}, {}, {}, {}]
    assert violations(traces({"logs-sparse": outlier})) == []


def test_median_above_the_bound_fails():
    slow = [{"alg2.flatness": 1.6}] * 3 + [{}] * 2
    [line] = violations(traces({"logs-sparse": slow}))
    assert line.startswith("B2 logs-sparse: alg2.flatness")
    assert "= 1.6 " in line


def test_unresolved_row_is_printed_not_gated():
    rows = check_paper_claims.traced_rows(
        traces({"contacts-dense": [{"alg2.flatness": 3.0}] * SEEDS})
    )
    assert check_paper_claims.violations(rows) == []
    [row] = [row for row in rows if row.claim.label == "B2" and row.subject == "contacts-dense"]
    assert (row.value, row.band) == (3.0, "unresolved")


@pytest.mark.parametrize(
    "metric, value",
    [("alg1.linearity", 1.6), ("alg2.flatness", 2.0), ("compile.cache_misses", 11.0)],
)
def test_each_broken_claim_is_reported(metric, value):
    label = {"alg1.linearity": "B1", "alg2.flatness": "B2"}.get(metric, "compile")
    [line] = violations(traces({"logs-sparse": [{metric: value}] * SEEDS}))
    assert line.startswith(f"{label} logs-sparse: ")


def test_missing_trace_is_a_violation():
    found = violations(traces({"logs-sparse": [{}, {}, None, {}, {}]}))
    assert len(found) == 3
    assert all(line.startswith(("B1 logs-sparse", "B2 logs-sparse", "compile logs-sparse"))
               and line.endswith("1 of 5 traces missing") for line in found)


@pytest.mark.parametrize(
    "value, band",
    [(1.0, "excellent"), (1.4, "good"), (1.6, "fail"), (None, "fail"), (float("nan"), "fail")],
)
def test_bands_of_an_upper_bound(value, band):
    assert check_paper_claims.B2.band(value) == band


def test_bands_of_a_lower_bound_and_an_ungated_row():
    claim = check_paper_claims.ON_THE_FLY
    assert [claim.band(v) for v in (4.0, 2.5, 1.2)] == ["excellent", "good", "fail"]
    assert claim._replace(gated=False).band(1.2) == "unresolved"


def test_main_exit_codes(monkeypatch, capsys):
    measured = [
        check_paper_claims.Row(claim, "", claim.excellent)
        for claim, _measure in check_paper_claims.MEASURED
    ]
    monkeypatch.setattr(check_paper_claims, "workloads", lambda: WORKLOADS)
    monkeypatch.setattr(check_paper_claims, "measured_rows", lambda: measured)
    monkeypatch.setattr(check_paper_claims, "traced_runs", lambda names: traces())
    assert check_paper_claims.main() == 0
    printed = capsys.readouterr().out
    for claim, _measure in check_paper_claims.MEASURED:
        assert f"\n| {claim.label} | " in printed
    assert "| B2 contacts-dense |" in printed
    monkeypatch.setattr(
        check_paper_claims, "traced_runs",
        lambda names: traces({"logs-sparse": [{"alg1.linearity": 3.0}] * SEEDS}),
    )
    assert check_paper_claims.main() == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("B1 logs-sparse: alg1.linearity") and "= 3.0 " in line


def test_proposition42_row_is_exact():
    # 2^(l+2) - 4 transitions leave c0 for l = 1..8; the least margin
    # over 2^l is at l = 1.
    assert check_paper_claims.proposition42_margin() == 2.0


def test_declared_workloads_match_the_benchmark():
    assert check_paper_claims.workloads() == [
        "logs-sparse", "contacts-dense", "nested-output"
    ]
