"""B11 — the production count vs stepping every character.

Algorithm 3's count loop (:func:`repro.runtime.kernel.count_loop`)
steps one character at a time only where it must: a lone silent run
sprints at C speed, and a run of ``k`` repeated classes into a fixed
point of the set plans costs ``POWER_MIN`` repeats plus ``O(log k)``
memoized binary powers.  Two workloads pin the claim from both ends:

* ``sparse-logs-count`` — the standard log scenario (mean run length
  ~1.4): the sprint carries it;
* ``dense-captures-count`` — one capture pattern over a document of
  giant uniform runs, whose capture class fans out: the powers carry
  each run.

Gated ratio (core-independent, both workloads):

* ``speedup_runlength_count_vs_scalar`` — the production count
  (``count_compiled`` with its fast path on, as ``Spanner.count`` runs
  it) vs the same loop with ``fast_path=False``, which steps every
  character (floor 5x in ``run_all.py``).

Both workloads also assert that every count path yields the same exact
integer, and the dense-captures document is counted by the reference
engine too.

Usage::

    python benchmarks/bench_runlength.py [--smoke] [--output report.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runtime.engine import count_compiled  # noqa: E402
from repro.spanners.spanner import Spanner  # noqa: E402
from repro.workloads.collections import scenario  # noqa: E402


def best_of(repeat: int, run) -> float:
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_counting(
    workload: str, compiled, document, *, repeat: int, reference=None
) -> dict:
    total_chars = len(document)

    # Correctness first: every path must produce the same exact integer.
    mappings = count_compiled(compiled, document)
    checks = [("scalar-nofast", count_compiled(compiled, document, fast_path=False))]
    if reference is not None:
        checks.append(("reference", reference(document)))
    for label, value in checks:
        if value != mappings:
            raise AssertionError(
                f"{workload}: {label} counted {value}, default {mappings}"
            )

    # The set plans and run powers persist on the automaton, so the
    # timed region measures the steady state of repeated counting — the
    # same state every facade/batch call after the first sees.
    nofast_seconds = best_of(
        repeat,
        lambda: count_compiled(compiled, document, fast_path=False),
    )
    default_seconds = best_of(
        repeat,
        lambda: count_compiled(compiled, document),
    )

    rows = {
        "scalar-nofast": {
            "seconds": nofast_seconds,
            "chars_per_second": total_chars / nofast_seconds,
        },
        "default": {
            "seconds": default_seconds,
            "chars_per_second": total_chars / default_seconds,
        },
        "speedup_runlength_count_vs_scalar": nofast_seconds / default_seconds,
    }
    return {
        "workload": workload,
        "documents": 1,
        "total_chars": total_chars,
        "mappings": mappings,
        "results": rows,
    }


def print_report(entry) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['total_chars']} chars, "
        f"{entry['mappings']} mappings"
    )
    print(f"{'strategy':<22} {'seconds':>10} {'chars/s':>14}")
    for label in ("scalar-nofast", "default"):
        row = rows[label]
        print(
            f"{label:<22} {row['seconds']:>10.4f} "
            f"{row['chars_per_second']:>14.0f}"
        )
    print(f"default vs scalar: {rows['speedup_runlength_count_vs_scalar']:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small documents for CI (a few seconds)"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "runlength_report.json"),
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)

    lines = 8000 if args.smoke else 40000
    run_length = 5000 if args.smoke else 20000
    run_pairs = 20 if args.smoke else 40
    repeat = 3 if args.smoke else 5

    workloads = []

    bench = scenario("sparse-logs", num_documents=1, scale=lines)
    document = next(iter(bench.collection))
    spanner = Spanner.from_regex(bench.pattern)
    workloads.append(
        bench_counting(
            "sparse-logs-count",
            spanner.runtime(document),
            document,
            repeat=repeat,
        )
    )
    print_report(workloads[-1])

    # Giant uniform runs with the capture class fanning out: exact
    # binary powers carry each run.
    dense_doc = ("a" * run_length + "b") * run_pairs + "a" * run_length
    dense_spanner = Spanner.from_regex(".*x{a+}.*")
    dense_compiled = dense_spanner.runtime(dense_doc)
    workloads.append(
        bench_counting(
            "dense-captures-count",
            dense_compiled,
            dense_doc,
            repeat=repeat,
            reference=lambda text: dense_spanner.count(text, engine="reference"),
        )
    )
    print_report(workloads[-1])

    report = {
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
