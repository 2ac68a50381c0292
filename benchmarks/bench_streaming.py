"""B12 — chunk-fed streaming vs the whole-document arena engine.

Measures what streaming is *for* on the ``tailing-logs`` scenario:

* **first-result latency** — how long until the first mapping reaches the
  caller.  The whole-document engine must finish preprocessing the entire
  document before its arena yields anything; the streaming evaluator in
  ``emit="incremental"`` mode delivers a match as soon as the chunk that
  settles it has been fed.
* **peak buffered arena** — the largest number of arena cells alive at
  once.  The whole-document arena grows with the number of matches; the
  streaming evaluator flushes settled mappings and compacts, so its
  buffer tracks the in-flight state only.
* **throughput** — end-to-end seconds for the full stream, as the cost
  check: chunk-fed evaluation re-enters the engine loop per chunk, so it
  should stay within a modest factor of the whole-document run.

All three ratios are gated by CI with absolute floors (see
``run_all.py``): streaming must *beat* the whole-document engine on
first-result latency (1.5×) and peak buffer (1.2×), and
``speedup_streaming_throughput_vs_arena`` must stay above 0.5× — a
catastrophic chunk-overhead regression fails the build.

Usage::

    python benchmarks/bench_streaming.py [--smoke] [--output report.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runtime.engine import evaluate_compiled_arena  # noqa: E402
from repro.runtime.streaming import StreamingEvaluator  # noqa: E402
from repro.spanners.spanner import Spanner  # noqa: E402
from repro.workloads.collections import chunked_document, scenario  # noqa: E402


def time_arena(runtime, document, *, repeat: int):
    """Whole-document run: (first-result seconds, total seconds, cells)."""
    best_first = best_total = None
    cells = mappings = 0
    for _ in range(repeat):
        start = time.perf_counter()
        result = evaluate_compiled_arena(runtime, document)
        count = 0
        first = None
        for _mapping in result:
            if first is None:
                first = time.perf_counter() - start
            count += 1
        total = time.perf_counter() - start
        first = total if first is None else first
        best_first = first if best_first is None else min(best_first, first)
        best_total = total if best_total is None else min(best_total, total)
        cells = len(result.cell_nodes)
        mappings = count
    return best_first, best_total, cells, mappings


def time_streaming(runtime, document, *, chunk_size: int, repeat: int):
    """Chunk-fed incremental run: (first seconds, total seconds, peak cells)."""
    best_first = best_total = None
    peak = mappings = 0
    for _ in range(repeat):
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        start = time.perf_counter()
        first = None
        count = 0
        for chunk in chunked_document(document, chunk_size):
            delivered = evaluator.feed(chunk)
            if delivered and first is None:
                first = time.perf_counter() - start
            count += len(delivered)
        for _mapping in evaluator.finish().residual:
            if first is None:
                first = time.perf_counter() - start
            count += 1
        total = time.perf_counter() - start
        first = total if first is None else first
        best_first = first if best_first is None else min(best_first, first)
        best_total = total if best_total is None else min(best_total, total)
        peak = evaluator.peak_arena_cells
        mappings = count
    return best_first, best_total, peak, mappings


def bench_workload(name: str, *, num_documents: int, scale: int, chunk_size: int, repeat: int):
    workload = scenario(name, num_documents=num_documents, scale=scale)
    spanner = Spanner.from_regex(workload.pattern)
    runtime = spanner.runtime("".join(doc.text for doc in workload.collection))

    arena_first = arena_total = stream_first = stream_total = 0.0
    arena_cells = stream_peak = total_mappings = 0
    for document in workload.collection:
        a_first, a_total, a_cells, a_count = time_arena(
            runtime, document, repeat=repeat
        )
        s_first, s_total, s_peak, s_count = time_streaming(
            runtime, document, chunk_size=chunk_size, repeat=repeat
        )
        if a_count != s_count:
            raise AssertionError(
                f"{name}: engines disagree — arena={a_count}, streaming={s_count}"
            )
        arena_first += a_first
        arena_total += a_total
        stream_first += s_first
        stream_total += s_total
        arena_cells += a_cells
        stream_peak += s_peak
        total_mappings += a_count

    results = {
        "arena": {
            "first_result_seconds": arena_first,
            "total_seconds": arena_total,
            "arena_cells": arena_cells,
        },
        "streaming": {
            "first_result_seconds": stream_first,
            "total_seconds": stream_total,
            "peak_arena_cells": stream_peak,
            "chunk_size": chunk_size,
        },
        "speedup_first_result_vs_arena": arena_first / stream_first
        if stream_first
        else float("inf"),
        "speedup_peak_cells_vs_arena": arena_cells / stream_peak
        if stream_peak
        else float("inf"),
        "speedup_streaming_throughput_vs_arena": arena_total / stream_total
        if stream_total
        else float("inf"),
    }
    return {
        "workload": name,
        "documents": len(workload.collection),
        "total_chars": workload.total_length,
        "mappings": total_mappings,
        "results": results,
    }


def print_report(entry) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['documents']} documents, "
        f"{entry['total_chars']} chars, {entry['mappings']} mappings"
    )
    print(f"{'strategy':<12} {'first result':>14} {'total':>10} {'buffered cells':>15}")
    print(
        f"{'arena':<12} {rows['arena']['first_result_seconds']:>13.4f}s "
        f"{rows['arena']['total_seconds']:>9.4f}s "
        f"{rows['arena']['arena_cells']:>15}"
    )
    print(
        f"{'streaming':<12} {rows['streaming']['first_result_seconds']:>13.4f}s "
        f"{rows['streaming']['total_seconds']:>9.4f}s "
        f"{rows['streaming']['peak_arena_cells']:>15}"
    )
    print(
        f"first result: {rows['speedup_first_result_vs_arena']:.2f}x earlier   "
        f"peak buffer: {rows['speedup_peak_cells_vs_arena']:.2f}x smaller   "
        f"throughput: {rows['speedup_streaming_throughput_vs_arena']:.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workloads for CI (a few seconds)"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "streaming_report.json"),
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        workloads = [dict(num_documents=2, scale=2500, chunk_size=2048, repeat=2)]
    else:
        workloads = [dict(num_documents=4, scale=12000, chunk_size=8192, repeat=3)]

    report = {"smoke": args.smoke, "cpu_count": os.cpu_count(), "workloads": []}
    for config in workloads:
        entry = bench_workload("tailing-logs", **config)
        report["workloads"].append(entry)
        print_report(entry)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
