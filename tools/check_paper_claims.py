#!/usr/bin/env python
"""Gate the paper's two complexity claims on the traced perfbench runs.

``perfbench/selftest.py`` runs every workload of ``BENCHMARK.json`` with
``--seed 7 --trace 1`` and leaves ``.perfbench_out/<workload>-seed7-trace1.json``
behind.  This check reads those files, so it adds no benchmark runtime,
and fails when, on any workload:

* ``alg1.linearity`` > 1.5 — Algorithm 1 costs more nanoseconds per
  character on the 16x documents than on the 1x ones, so preprocessing
  is not linear in |d|;
* ``alg2.flatness`` > 1.5 — Algorithm 2's p99 output delay grows with
  |d|, so enumeration is not constant-delay;
* ``compile.cache_misses`` != 1 — a spanner compiled more than once, so
  per-request compilation hides inside the numbers above.

Usage::

    python tools/check_paper_claims.py [out_dir]

*out_dir* defaults to ``.perfbench_out`` at the repository root.  Exits 0
when every claim holds, 1 with one line per violation otherwise (a
missing or unreadable file is a violation too).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``metric -> (bound, holds)``: a claim holds when ``holds(value, bound)``.
CLAIMS = {
    "alg1.linearity": (1.5, lambda value, bound: value <= bound),
    "alg2.flatness": (1.5, lambda value, bound: value <= bound),
    "compile.cache_misses": (1, lambda value, bound: value == bound),
}


def workloads(root: Path = ROOT) -> list[str]:
    """The workload names ``BENCHMARK.json`` declares."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return [workload["name"] for workload in json.load(handle)["workloads"]]


def violations(out_dir: Path, names: list[str]) -> list[str]:
    """One line per claim that fails, or per trace file that cannot be read."""
    found = []
    for name in names:
        path = out_dir / f"{name}-seed7-trace1.json"
        try:
            with open(path, encoding="utf-8") as handle:
                metrics = json.load(handle)["metrics"]
        except (OSError, ValueError, KeyError) as error:
            found.append(f"{name}: cannot read {path}: {error}")
            continue
        for metric, (bound, holds) in CLAIMS.items():
            value = metrics.get(metric)
            if not isinstance(value, (int, float)) or not holds(value, bound):
                found.append(f"{name}: {metric} = {value} (bound {bound})")
    return found


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0]) if argv else ROOT / ".perfbench_out"
    found = violations(out_dir, workloads())
    for line in found:
        print(line, file=sys.stderr)
    if not found:
        print("paper claims hold: " + ", ".join(CLAIMS))
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
