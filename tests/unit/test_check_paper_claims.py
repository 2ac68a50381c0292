"""Unit tests for ``tools/check_paper_claims.py`` on synthetic trace files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_paper_claims.py"
_spec = importlib.util.spec_from_file_location("check_paper_claims", TOOL)
check_paper_claims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_paper_claims)

WORKLOADS = ["logs-sparse", "contacts-dense"]
PASSING = {"alg1.linearity": 0.92, "alg2.flatness": 1.03, "compile.cache_misses": 1.0}


def write_traces(out_dir: Path, overrides: dict | None = None) -> None:
    for name in WORKLOADS:
        metrics = dict(PASSING, **(overrides or {}).get(name, {}))
        payload = {"workload": name, "metrics": metrics}
        (out_dir / f"{name}-seed7-trace1.json").write_text(json.dumps(payload))


def test_passing_traces_report_nothing(tmp_path):
    write_traces(tmp_path)
    assert check_paper_claims.violations(tmp_path, WORKLOADS) == []


@pytest.mark.parametrize(
    "metric, value",
    [("alg1.linearity", 1.6), ("alg2.flatness", 2.0), ("compile.cache_misses", 11.0)],
)
def test_each_broken_claim_is_reported(tmp_path, metric, value):
    write_traces(tmp_path, {"contacts-dense": {metric: value}})
    found = check_paper_claims.violations(tmp_path, WORKLOADS)
    assert found == [f"contacts-dense: {metric} = {value} (bound "
                     f"{check_paper_claims.CLAIMS[metric][0]})"]


def test_missing_trace_is_a_violation(tmp_path):
    write_traces(tmp_path)
    (tmp_path / "logs-sparse-seed7-trace1.json").unlink()
    found = check_paper_claims.violations(tmp_path, WORKLOADS)
    assert len(found) == 1 and found[0].startswith("logs-sparse: cannot read")


def test_main_exit_codes(tmp_path, monkeypatch):
    monkeypatch.setattr(check_paper_claims, "workloads", lambda: WORKLOADS)
    write_traces(tmp_path)
    assert check_paper_claims.main([str(tmp_path)]) == 0
    write_traces(tmp_path, {"logs-sparse": {"alg1.linearity": 3.0}})
    assert check_paper_claims.main([str(tmp_path)]) == 1


def test_declared_workloads_match_the_benchmark():
    assert check_paper_claims.workloads() == [
        "logs-sparse", "contacts-dense", "nested-output"
    ]
