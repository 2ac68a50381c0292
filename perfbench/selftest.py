"""Smoke-size self-test of the benchmark.

Runs every workload for a short time, untraced and traced, and checks that
the result line carries exactly the metrics ``BENCHMARK.json`` names, each
with its unit and a finite value; that the run was correct (``error_ratio``
0); and that the summary also names the metrics it prints beside the
result line.  Finally it checks that the benchmark refuses to run, without
printing a result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import OUT_DIR, ROOT
from run import SUMMARY_ONLY

SMOKE_SECONDS = "1.5"


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(cwd), timeout=180,
    )


def check(workload: str, trace: int, spec: dict) -> list[str]:
    done = run(workload, trace)
    if done.returncode != 0:
        return [f"{workload} trace {trace}: exit {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{workload} trace {trace}: error_ratio is not 0: {done.stderr[-500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(wanted):
        errors.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    for name, unit in wanted.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not math.isfinite(got.get("value", math.nan)):
            errors.append(f"{workload} trace {trace}: {name} = {got}")
    if not trace:
        summary = "\n".join(lines[:-1])
        named = ["error_ratio", *SUMMARY_ONLY]
        errors += [f"{workload}: summary lacks {n}" for n in named if f" {n} " not in summary]
    return errors


def check_refuses_without_sources() -> list[str]:
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run("logs-sparse", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["bare checkout: expected a non-zero exit and no result"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    errors = check_refuses_without_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
