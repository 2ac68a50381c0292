"""Run the benchmark suite, gate it, and emit the BENCH_10.json snapshot.

One entry point for everything CI (and a developer refreshing baselines)
needs:

1. run the six report-producing benchmarks (``bench_batch.py``,
   ``bench_enumerate.py``, ``bench_algebra.py``, ``bench_streaming.py``,
   ``bench_serve.py``, ``bench_runlength.py``), in smoke mode by default;
2. gate every report against its committed baseline with
   ``check_regression.py`` (ratio tolerance plus the absolute floors the
   acceptance criteria pin — including the streaming first-result-latency
   and peak-buffer floors, and the serving throughput / p99-budget /
   plan-cache-hit-ratio floors);
3. write a consolidated perf-trajectory snapshot — ``BENCH_10.json`` at the
   repository root — containing only the machine-portable ratio metrics of
   every workload (plus ``cpu_count``, so the ratios can be read in
   context), so the repo history carries one comparable perf number set
   per PR.

Usage::

    python benchmarks/run_all.py [--full] [--skip-gates] [--output BENCH_10.json]

``--full`` runs the full-size workloads instead of the CI smokes (and
skips the gates: the committed baselines are smoke-sized, so comparing
full-size ratios against them would be meaningless); ``--skip-gates``
produces reports and the snapshot without failing on regressions
(baseline refresh workflow).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

#: (script, report file, baseline file, extra check_regression arguments)
SUITE = [
    (
        "bench_batch.py",
        "batch_report.json",
        os.path.join("baselines", "batch_smoke.json"),
        # The sparse-logs acceptance criterion: the quiescent fast path must
        # keep a >=2x edge over the same engine with the sprint disabled.
        # The resilience acceptance criterion: with injection disabled the
        # supervised serial path must stay at parity with the plain
        # compiled run (its no-fault cost is a couple of None-checks per
        # document; the interleaved paired measurement on the contacts
        # workload reads ~1.00, i.e. well inside the <=2% budget).  The
        # floor is set below the measured value for the same reason as
        # every other gate here — shared-runner jitter headroom — so only
        # a genuine supervision tax fails the build.
        [
            "--min-speedup",
            "speedup_fastpath_vs_nofast=2.0",
            "--min-speedup",
            "speedup_supervised_vs_plain=0.9",
        ],
    ),
    (
        "bench_enumerate.py",
        "enumerate_report.json",
        os.path.join("baselines", "enumerate_smoke.json"),
        # Floor 1.3 is a safety net against the arena regressing toward
        # parity; the >=1.5x acceptance evidence is the committed baseline
        # (and any quiet machine), while shared runners get jitter headroom.
        # The sparse-logs-preprocessing entry additionally carries the
        # fast-path floor, mirroring the batch gate.  The cold
        # set-explosion entry (a new active set at most positions, where
        # the arena loop's per-set plans cannot pay) must stay within
        # 1.5x of the state-indexed loop that preceded them: its floor
        # is that loop's reading (median 3.05x over nine smoke runs on a
        # 2-core host) divided by 1.5.
        [
            "--min-speedup",
            "speedup_arena_vs_reference=1.3",
            "--min-speedup",
            "speedup_fastpath_vs_nofast=2.0",
            "--min-speedup",
            "set-explosion-preprocessing.speedup_arena_vs_reference=2.0",
        ],
    ),
    (
        "bench_algebra.py",
        "algebra_report.json",
        os.path.join("baselines", "algebra_smoke.json"),
        [],
    ),
    (
        "bench_streaming.py",
        "streaming_report.json",
        os.path.join("baselines", "streaming_smoke.json"),
        # The streaming acceptance criteria: a first result must arrive
        # well before the whole-document arena finishes preprocessing,
        # the incremental buffer must stay below the full arena, and
        # chunk-fed throughput must not collapse.
        [
            "--min-speedup",
            "speedup_first_result_vs_arena=1.5",
            "--min-speedup",
            "speedup_peak_cells_vs_arena=1.2",
            "--min-speedup",
            "speedup_streaming_throughput_vs_arena=0.5",
        ],
    ),
    (
        "bench_serve.py",
        "serve_report.json",
        os.path.join("baselines", "serve_smoke.json"),
        # The serving acceptance criteria: the p99 request latency must
        # stay inside the committed budget, throughput must not collapse
        # (the smoke drives 50 concurrent sessions, so 20 req/s is a
        # generous floor even on a one-core runner), and the shared plan
        # cache must actually share — 50 sessions on one pattern sit at
        # a 0.98 hit ratio, so 0.5 only fails if sharing breaks.
        [
            "--min-speedup",
            "speedup_p99_vs_budget=1.0",
            "--min-speedup",
            "requests_per_second=20.0",
            "--min-speedup",
            "plan_cache_hit_ratio=0.5",
        ],
    ),
    (
        "bench_runlength.py",
        "runlength_report.json",
        os.path.join("baselines", "runlength_smoke.json"),
        # The production count (count_compiled with its fast path: the
        # sprint and the count loop's run powers) must hold a >=5x edge
        # over the same loop with fast_path=False, which steps every
        # character, on both the sparse-logs and the dense-run workload
        # (measured ~27x and ~69x; the floor leaves shared-runner jitter
        # headroom).
        ["--min-speedup", "speedup_runlength_count_vs_scalar=5.0"],
    ),
]

def run(command: list[str]) -> int:
    print("+", " ".join(command), flush=True)
    return subprocess.call(command, cwd=REPO_ROOT)


def ratio_summary(report_path: str) -> dict:
    """The machine-portable ratio metrics of one report, by workload."""
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    summary = {}
    for entry in report.get("workloads", []):
        ratios = {
            key: round(value, 3)
            for key, value in entry.get("results", {}).items()
            if key.startswith("speedup_")
            and isinstance(value, (int, float))
            # speedup_processes_vs_serial depends on cpu_count and
            # pool-spawn cost; committing it would churn the trajectory
            # file with machine noise on every refresh.
            and key != "speedup_processes_vs_serial"
        }
        summary[entry["workload"]] = {
            "documents": entry.get("documents"),
            "total_chars": entry.get("total_chars"),
            "mappings": entry.get("mappings"),
            **ratios,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true", help="full-size workloads (default: smoke)"
    )
    parser.add_argument(
        "--skip-gates",
        action="store_true",
        help="produce reports and the snapshot without failing on regressions",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="path of the consolidated snapshot (default: BENCH_10.json at the "
        "repo root for smoke runs, BENCH_10_full.json for --full so a local "
        "full-size run never overwrites the committed smoke trajectory)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        name = "BENCH_10_full.json" if args.full else "BENCH_10.json"
        args.output = os.path.join(REPO_ROOT, name)

    mode_args = [] if args.full else ["--smoke"]
    # The committed baselines are smoke-sized; full-size ratios are
    # scale-dependent (same workload names, different instances), so
    # gating them against the smoke baselines would be meaningless.
    skip_gates = args.skip_gates or args.full
    if args.full and not args.skip_gates:
        print("note: --full skips the regression gates (baselines are smoke-sized)")
    failures: list[str] = []
    cpu_count = os.cpu_count() or 1
    snapshot = {
        "pr": 10,
        "smoke": not args.full,
        "cpu_count": cpu_count,
        "benchmarks": {},
    }

    for script, report_name, baseline, extra in SUITE:
        report_path = os.path.join(BENCH_DIR, report_name)
        code = run(
            [sys.executable, os.path.join(BENCH_DIR, script)]
            + mode_args
            + ["--output", report_path]
        )
        if code != 0:
            failures.append(f"{script} exited with {code}")
            continue
        snapshot["benchmarks"][script.removeprefix("bench_").removesuffix(".py")] = (
            ratio_summary(report_path)
        )
        if skip_gates:
            continue
        code = run(
            [
                sys.executable,
                os.path.join(BENCH_DIR, "check_regression.py"),
                "--baseline",
                os.path.join(BENCH_DIR, baseline),
                "--current",
                report_path,
                "--tolerance",
                "1.5",
            ]
            + extra
        )
        if code != 0:
            failures.append(f"regression gate failed for {report_name}")

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    print(f"\nperf-trajectory snapshot written to {args.output}")

    if failures:
        print("\nbenchmark suite FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark suite passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
