"""B11 — run-length kernels vs the scalar engine on counting.

Algorithm 3's scalar loop pays one Python-level fold per character (or
per sprint segment on quiescent stretches); the run-length kernel
(:mod:`repro.runtime.runlength`) replaces a run of ``k`` equal classes
with one matrix power — ``O(log k)`` sparse-row products, ``O(1)`` for
functional classes — plus a content-keyed memo over delimiter-bounded
segments.  Two workloads pin the claim from both ends:

* ``sparse-logs-count`` — the standard log scenario (mean run length
  ~1.4): runs are short, so the win comes from the **segment memo** (a
  few dozen distinct line shapes, counted once each) rather than from
  exponentiation;
* ``dense-captures-count`` — one capture pattern over a document of
  giant uniform runs: the ``general``-kind matrix powers and (when
  importable) the exact int64 numpy path carry the run.

Gated ratio (core-independent, both workloads):

* ``speedup_runlength_count_vs_scalar`` — the pure-python run-length
  count vs the scalar fold with the sprint disabled, the apples-to-
  apples chars-actually-folded comparison (floor 5x in ``run_all.py``).

Reported, not gated:

* ``speedup_runlength_count_vs_fastpath`` — vs the scalar count *with*
  its quiescent sprint.  Honest disclosure: on sparse logs the sprint
  already skips most characters at C speed, so this sits below 1x
  there (which is exactly why ``kernel="auto"`` keeps short-run
  documents on the scalar path), while run-heavy documents clear it
  comfortably;
* ``speedup_runlength_numpy_vs_scalar`` — the auto numpy/python mix
  (equal to the pure-python ratio when numpy is absent).

Both workloads also assert that every count path yields the same exact
integer.

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

from repro.runtime.engine import EvaluationScratch, count_compiled  # noqa: E402
from repro.runtime.runlength import (  # noqa: E402
    count_runlength,
    numpy_available,
    runlength_kernel,
)
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


def bench_counting(workload: str, compiled, document, *, repeat: int) -> dict:
    total_chars = len(document)
    scratch = EvaluationScratch(compiled)

    # Correctness first: every path must produce the same exact integer.
    mappings = count_compiled(compiled, document, scratch=scratch)
    for label, value in (
        ("scalar-nofast", count_compiled(compiled, document, fast_path=False)),
        ("runlength", count_runlength(compiled, document, use_numpy=False)),
        ("runlength-auto", count_runlength(compiled, document)),
    ):
        if value != mappings:
            raise AssertionError(
                f"{workload}: {label} counted {value}, scalar {mappings}"
            )

    # The kernel and its memo tables persist on the automaton, so the
    # timed region measures the steady state of repeated counting — the
    # same state every facade/batch call after the first sees.
    runlength_kernel(compiled)

    nofast_seconds = best_of(
        repeat,
        lambda: count_compiled(
            compiled, document, scratch=scratch, fast_path=False
        ),
    )
    fastpath_seconds = best_of(
        repeat,
        lambda: count_compiled(compiled, document, scratch=scratch),
    )
    runlength_seconds = best_of(
        repeat,
        lambda: count_runlength(compiled, document, use_numpy=False),
    )
    numpy_seconds = best_of(
        repeat,
        lambda: count_runlength(compiled, document),
    )

    rows = {
        "scalar-nofast": {
            "seconds": nofast_seconds,
            "chars_per_second": total_chars / nofast_seconds,
        },
        "scalar-fastpath": {
            "seconds": fastpath_seconds,
            "chars_per_second": total_chars / fastpath_seconds,
        },
        "runlength": {
            "seconds": runlength_seconds,
            "chars_per_second": total_chars / runlength_seconds,
        },
        "runlength-auto-numpy": {
            "seconds": numpy_seconds,
            "chars_per_second": total_chars / numpy_seconds,
        },
        "speedup_runlength_count_vs_scalar": nofast_seconds / runlength_seconds,
        "speedup_runlength_count_vs_fastpath": (
            fastpath_seconds / runlength_seconds
        ),
        "speedup_runlength_numpy_vs_scalar": nofast_seconds / numpy_seconds,
    }
    return {
        "workload": workload,
        "documents": 1,
        "total_chars": total_chars,
        "mappings": mappings,
        "numpy": numpy_available(),
        "results": rows,
    }


def print_report(entry) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['total_chars']} chars, "
        f"{entry['mappings']} mappings, numpy={entry['numpy']}"
    )
    print(f"{'strategy':<22} {'seconds':>10} {'chars/s':>14}")
    for label in (
        "scalar-nofast",
        "scalar-fastpath",
        "runlength",
        "runlength-auto-numpy",
    ):
        row = rows[label]
        print(
            f"{label:<22} {row['seconds']:>10.4f} "
            f"{row['chars_per_second']:>14.0f}"
        )
    print(
        f"runlength vs scalar: {rows['speedup_runlength_count_vs_scalar']:.2f}x   "
        f"vs fastpath: {rows['speedup_runlength_count_vs_fastpath']:.2f}x   "
        f"numpy-auto vs scalar: {rows['speedup_runlength_numpy_vs_scalar']:.2f}x"
    )


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

    # Giant uniform runs with the capture class fanning out: the
    # `general` count kind, matrix powers, and the numpy int64 path.
    dense_doc = ("a" * run_length + "b") * run_pairs + "a" * run_length
    dense_spanner = Spanner.from_regex(".*x{a+}.*")
    dense_compiled = dense_spanner.runtime(dense_doc)
    workloads.append(
        bench_counting(
            "dense-captures-count", dense_compiled, dense_doc, repeat=repeat
        )
    )
    print_report(workloads[-1])

    report = {
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "numpy": numpy_available(),
        "workloads": workloads,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
