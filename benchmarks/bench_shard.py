"""B10 — intra-document shard parallelism on one large sparse log.

Every other benchmark parallelizes across documents; this one measures
the shard-parallel engine (:mod:`repro.runtime.sharding`) *within* a
single document: split the class-id buffer into shards, summarize each
shard's state→frontier map concurrently with replaying the first shard,
stitch, then replay the reachable shards concurrently.

Three strategies are timed on one big ``sparse-logs`` document:

* ``serial``        — ``evaluate_compiled_arena`` (the baseline every
  shard run must be bit-identical to);
* ``sharded-inline`` — the same shard decomposition executed in-process
  (no pool): its cost vs serial is the pure decomposition overhead, a
  **core-independent** ratio (``speedup_sharded_inline_vs_serial``,
  expected around 0.5 on sprint-heavy input because summaries + replays
  do roughly one extra scan);
* ``sharded-pool``  — shards fanned out to a persistent worker pool
  (spawned outside the timed region); ``speedup_sharded_vs_serial`` is
  the headline wall-clock ratio, and the only machine-dependent one.

The report also carries ``speedup_summary_pass_vs_serial`` — serial
seconds over the summed in-task summary-pass seconds — which pins the
claim that the capture-free pass reuses the quiescent sprint and stays
within a constant factor of one serial scan regardless of core count.
CI gates the core-independent ratios everywhere and the wall-clock
speedup only on runners with enough cores to express it (see
``run_all.py``).

Usage::

    python benchmarks/bench_shard.py [--smoke] [--workers N] [--output report.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runtime.engine import (  # noqa: E402
    EvaluationScratch,
    count_compiled,
    evaluate_compiled_arena,
)
from repro.runtime.sharding import (  # noqa: E402
    ShardMetrics,
    evaluate_sharded,
    start_shard_pool,
)
from repro.spanners.spanner import Spanner  # noqa: E402
from repro.workloads.collections import scenario  # noqa: E402

ARENA_ARRAYS = (
    "node_markers",
    "node_positions",
    "node_starts",
    "node_ends",
    "cell_nodes",
    "cell_nexts",
    "final_entries",
)


def best_of(repeat: int, run) -> float:
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_document(compiled, document, *, workers: int, repeat: int) -> dict:
    # At least four shards even with two workers: two-shard plans have no
    # interior shard, so the summary pass would never run and the
    # summary-overhead ratio could not be measured.
    shards = max(workers, 4)
    total_chars = len(document)
    scratch = EvaluationScratch(compiled)
    serial_arena = evaluate_compiled_arena(compiled, document, scratch=scratch)
    mappings = count_compiled(compiled, document, scratch=scratch)

    serial_seconds = best_of(
        repeat,
        lambda: evaluate_compiled_arena(compiled, document, scratch=scratch),
    )

    # Inline decomposition: same shard plan, no pool — the overhead of
    # summaries + stitch + replay when nothing runs concurrently.
    inline_metrics = ShardMetrics()
    inline_seconds = best_of(
        repeat,
        lambda: evaluate_sharded(
            compiled, document, shards=shards, metrics=inline_metrics
        ),
    )

    pool_metrics = ShardMetrics()
    pool = start_shard_pool(compiled, workers)
    try:
        pool_arena = evaluate_sharded(
            compiled, document, pool=pool, shards=shards, metrics=pool_metrics
        )
        for name in ARENA_ARRAYS:
            if list(getattr(pool_arena, name)) != list(getattr(serial_arena, name)):
                raise AssertionError(f"sharded arena differs from serial: {name}")
        pool_seconds = best_of(
            repeat,
            lambda: evaluate_sharded(
                compiled, document, pool=pool, shards=shards, metrics=pool_metrics
            ),
        )
    finally:
        pool.close()

    # In-task pass split (summed task durations — core-independent):
    # averaged over every pooled run recorded above.
    snapshot = pool_metrics.snapshot()
    runs = snapshot["documents_sharded"]
    summary_seconds = snapshot["summary_seconds"] / runs
    replay_seconds = snapshot["replay_seconds"] / runs

    rows = {
        "serial": {
            "seconds": serial_seconds,
            "chars_per_second": total_chars / serial_seconds,
        },
        "sharded-inline": {
            "seconds": inline_seconds,
            "chars_per_second": total_chars / inline_seconds,
        },
        "sharded-pool": {
            "seconds": pool_seconds,
            "chars_per_second": total_chars / pool_seconds,
        },
        "summary_pass_seconds": summary_seconds,
        "replay_pass_seconds": replay_seconds,
        "speedup_sharded_vs_serial": serial_seconds / pool_seconds,
        "speedup_sharded_inline_vs_serial": serial_seconds / inline_seconds,
        "speedup_summary_pass_vs_serial": (
            serial_seconds / summary_seconds if summary_seconds else float("inf")
        ),
    }
    return {
        "workload": "sparse-logs-single-doc",
        "documents": 1,
        "total_chars": total_chars,
        "mappings": mappings,
        "shards": shards,
        "results": rows,
    }


def print_report(entry, workers: int) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['total_chars']} chars, "
        f"{entry['mappings']} mappings, {workers} workers"
    )
    print(f"{'strategy':<16} {'seconds':>10} {'chars/s':>14}")
    for label in ("serial", "sharded-inline", "sharded-pool"):
        row = rows[label]
        print(
            f"{label:<16} {row['seconds']:>10.4f} "
            f"{row['chars_per_second']:>14.0f}"
        )
    print(
        f"pass split: summary {rows['summary_pass_seconds']:.4f}s, "
        f"replay {rows['replay_pass_seconds']:.4f}s"
    )
    print(
        f"sharded vs serial: {rows['speedup_sharded_vs_serial']:.2f}x   "
        f"inline vs serial: {rows['speedup_sharded_inline_vs_serial']:.2f}x   "
        f"summary pass vs serial: {rows['speedup_summary_pass_vs_serial']:.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small document for CI (a few seconds)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, min(4, os.cpu_count() or 1)),
        help="shard worker count (default: cpu count clamped to [2, 4] — "
        "at least 2 so the decomposition is always exercised)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "shard_report.json"),
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)
    if args.workers < 2:
        parser.error(f"--workers must be at least 2, got {args.workers}")

    lines = 8000 if args.smoke else 60000
    repeat = 3 if args.smoke else 5

    if (os.cpu_count() or 1) < 2:
        print(
            "note: only one CPU is available — the pooled run pays task "
            "shipping without any parallel speedup on this machine (CI "
            "soft-gates the wall-clock floor here; the core-independent "
            "overhead ratios are still gated hard)"
        )

    bench = scenario("sparse-logs", num_documents=1, scale=lines)
    document = next(iter(bench.collection))
    spanner = Spanner.from_regex(bench.pattern)
    compiled = spanner.runtime(document)

    entry = bench_document(compiled, document, workers=args.workers, repeat=repeat)
    print_report(entry, args.workers)

    report = {
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "workloads": [entry],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
