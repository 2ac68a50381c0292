"""Benchmark regression gate: compare a report against a committed baseline.

CI runs the benchmark smokes (``bench_batch.py --smoke``,
``bench_enumerate.py --smoke``) and then this script, which fails the build
when the compiled paths regress.  Absolute seconds are not comparable
across machines, so the gate checks the *ratio* metrics the reports
already carry — the ``speedup_*_vs_reference`` entries under a workload's
``results``, each comparing two engines within the same run on the same
machine (machine-dependent ratios like ``speedup_processes_vs_serial``
are not gated): a current ratio may not fall below
``baseline / tolerance``, i.e. with the default ``--tolerance 1.5`` a
>1.5x slowdown of a compiled path relative to its in-run reference fails.

``--min-speedup key=value`` additionally enforces an absolute floor on
*any* ratio metric a workload's results carry (not only the
``_vs_reference`` ones) — the acceptance criterion that arena enumeration
stays at least 1.5x faster per mapping than the reference walker is pinned
with ``--min-speedup speedup_arena_vs_reference=1.5``, and the
quiescent-run fast path's contribution with
``--min-speedup speedup_fastpath_vs_nofast=2.0``.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/enumerate_smoke.json \
        --current benchmarks/enumerate_report.json \
        --tolerance 1.5 \
        --min-speedup speedup_arena_vs_reference=1.5
"""

from __future__ import annotations

import argparse
import json
import sys


def load_workloads(path: str) -> dict[str, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return {entry["workload"]: entry for entry in report.get("workloads", [])}


def ratio_metrics(entry: dict) -> dict[str, float]:
    """The machine-portable ratio metrics of one workload entry.

    Only engine-vs-reference ratios measured within a single run are
    gated (``speedup_*_vs_reference``): both sides run on the same
    machine in the same process, so the ratio transfers across hardware.
    ``speedup_processes_vs_serial`` is deliberately excluded — it is
    dominated by pool-spawn overhead and ``cpu_count`` and would flap on
    runners with different core counts.
    """
    return {
        key: value
        for key, value in entry.get("results", {}).items()
        if key.startswith("speedup_")
        and key.endswith("_vs_reference")
        and isinstance(value, (int, float))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--current", required=True, help="freshly produced report JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="maximum allowed slowdown factor vs the baseline ratios (default 1.5)",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="absolute floor for a ratio metric, e.g. speedup_arena_vs_reference=1.5 "
        "(repeatable; applied to every workload carrying the metric)",
    )
    args = parser.parse_args(argv)

    def parse_floors(items: list[str], flag: str) -> dict[str, float]:
        parsed: dict[str, float] = {}
        for item in items:
            key, _, value = item.partition("=")
            try:
                parsed[key] = float(value)
            except ValueError:
                parser.error(f"{flag} needs KEY=FLOAT, got {item!r}")
        return parsed

    floors = parse_floors(args.min_speedup, "--min-speedup")

    baseline = load_workloads(args.baseline)
    current = load_workloads(args.current)

    failures: list[str] = []
    checked = 0
    floors_applied = {key: 0 for key in floors}
    for name, base_entry in baseline.items():
        cur_entry = current.get(name)
        if cur_entry is None:
            failures.append(f"{name}: workload present in baseline but missing from report")
            continue
        base_ratios = ratio_metrics(base_entry)
        cur_ratios = ratio_metrics(cur_entry)
        for key, base_value in base_ratios.items():
            cur_value = cur_ratios.get(key)
            if cur_value is None:
                failures.append(f"{name}.{key}: metric missing from report")
                continue
            checked += 1
            allowed = base_value / args.tolerance
            status = "ok" if cur_value >= allowed else "FAIL"
            print(
                f"{name}.{key}: current={cur_value:.2f}x baseline={base_value:.2f}x "
                f"(min allowed {allowed:.2f}x) {status}"
            )
            if cur_value < allowed:
                failures.append(
                    f"{name}.{key}: {cur_value:.2f}x is a >{args.tolerance}x slowdown "
                    f"vs the baseline {base_value:.2f}x"
                )
        for key, floor in floors.items():
            # Floors apply to any numeric ratio in the results, including
            # in-run controls like speedup_fastpath_vs_nofast that the
            # tolerance gate deliberately ignores.
            cur_value = cur_entry.get("results", {}).get(key)
            if not isinstance(cur_value, (int, float)):
                continue
            floors_applied[key] += 1
            checked += 1
            status = "ok" if cur_value >= floor else "FAIL"
            print(f"{name}.{key}: current={cur_value:.2f}x (floor {floor:.2f}x) {status}")
            if cur_value < floor:
                failures.append(
                    f"{name}.{key}: {cur_value:.2f}x is below the absolute floor {floor:.2f}x"
                )

    # A floor that matched no workload at all is a disabled gate, not a
    # pass: a renamed (or typo'd) metric must fail loudly, or the floor
    # silently stops protecting the acceptance criterion it pins.
    for key, applied in floors_applied.items():
        if applied == 0:
            failures.append(
                f"--min-speedup {key}: no workload in the report carries this "
                "metric — renamed, typo'd, or no longer emitted?"
            )

    if not checked:
        failures.append("no ratio metrics were compared — wrong report files?")
    if failures:
        print("\nbenchmark regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbenchmark regression check passed ({checked} metrics).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
