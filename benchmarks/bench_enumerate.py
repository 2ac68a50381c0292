"""B10 — per-mapping enumeration delay: reference walker vs arena walker.

Algorithm 2's promise is a *per-mapping* delay that depends only on the
number of variables.  This benchmark measures that delay distribution for
the two enumeration paths:

* ``reference`` — the recursive object walker over the legacy
  ``DagNode``/``LazyList`` graph (:mod:`repro.enumeration.enumerate`);
* ``arena``     — the integer walker over the flat
  :class:`~repro.runtime.dag.CompiledResultDag` produced natively by the
  compiled engine (:mod:`repro.runtime.dag`).

Both enumerate the *same* spanner output (the preprocessing phase is run
once per path and excluded from the timed region); reported are the
p50/p99/max of the :func:`~repro.enumeration.enumerate.delay_profile`
samples plus the mean per-mapping delay, and the ratio
``speedup_arena_vs_reference`` (reference mean / arena mean).

Two workloads bracket the enumeration regimes: the output-heavy nested
capture formula (``Θ(n⁴)`` mappings per document) and the Figure 1 contact
extraction (few mappings over long documents).  A third entry
(``sparse-logs-preprocessing``) times the *preprocessing* phase itself on
the sparse-match log workload — the regime the quiescent-run fast path
targets — comparing the reference engine, the arena engine, and the arena
engine with the fast path disabled.  A fourth entry
(``set-explosion-preprocessing``) times *cold* preprocessing where the
active sets explode: random ``ab`` text under ``.*x{a[ab]{10}}.*``
meets a new set of live states at most positions, so the arena engine
builds its per-set plans for nearly one use each.  Every timed arena
call runs on a fresh spanner, compiled outside the timer.

Usage::

    python benchmarks/bench_enumerate.py [--smoke] [--output report.json]

``--smoke`` shrinks the workloads so the whole run takes a few seconds; it
is what CI runs on every push.  The JSON report is always written (default
``benchmarks/enumerate_report.json``), shares the artifact shape of
``bench_batch.py`` and is compared against the committed baseline by
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.documents import Document  # noqa: E402
from repro.enumeration.enumerate import delay_profile  # noqa: E402
from repro.enumeration.evaluate import evaluate as reference_evaluate  # noqa: E402
from repro.runtime.engine import evaluate_compiled_arena  # noqa: E402
from repro.spanners.spanner import Spanner  # noqa: E402
from repro.workloads.collections import NESTED_PATTERN  # noqa: E402
from repro.workloads.documents import (  # noqa: E402
    contact_document,
    random_document,
    server_log,
)
from repro.workloads.spanners import contact_pattern  # noqa: E402


def percentile(ordered: list[float], fraction: float) -> float:
    """The *fraction*-percentile of an ascending-sorted sample."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def profile_stats(delays: list[float]) -> dict:
    """p50/p99/max/mean of one delay profile, in seconds per mapping."""
    ordered = sorted(delays)
    mean = sum(delays) / len(delays) if delays else 0.0
    return {
        "mappings": len(delays),
        "p50_seconds": percentile(ordered, 0.50),
        "p99_seconds": percentile(ordered, 0.99),
        "max_seconds": ordered[-1] if ordered else 0.0,
        "mean_seconds": mean,
        "mappings_per_second": (1.0 / mean) if mean else float("inf"),
    }


def bench_workload(name: str, pattern: str, text: str, *, limit: int, repeat: int) -> dict:
    """Profile both enumeration paths over one (pattern, document) pair.

    Preprocessing runs once per path outside the timed region; the best
    (lowest-mean) profile of *repeat* runs is kept for each path, damping
    scheduler noise.
    """
    spanner = Spanner.from_regex(pattern)
    automaton = spanner.compiled(text)
    compiled = spanner.runtime(text)

    reference_result = reference_evaluate(automaton, text, check_determinism=False)
    arena_result = evaluate_compiled_arena(compiled, text)

    def best_profile(result) -> list[float]:
        best: list[float] | None = None
        for _ in range(repeat):
            delays = delay_profile(result, limit=limit)
            if best is None or sum(delays) < sum(best):
                best = delays
        return best or []

    reference_delays = best_profile(reference_result)
    arena_delays = best_profile(arena_result)
    if len(reference_delays) != len(arena_delays):
        raise AssertionError(
            f"{name}: paths enumerated different output sizes — "
            f"reference={len(reference_delays)}, arena={len(arena_delays)}"
        )

    rows = {
        "reference": profile_stats(reference_delays),
        "arena": profile_stats(arena_delays),
    }
    arena_mean = rows["arena"]["mean_seconds"]
    rows["speedup_arena_vs_reference"] = (
        rows["reference"]["mean_seconds"] / arena_mean if arena_mean else float("inf")
    )
    return {
        "workload": name,
        "documents": 1,
        "total_chars": len(text),
        "mappings": rows["arena"]["mappings"],
        "results": rows,
    }


def bench_preprocessing(name: str, pattern: str, text: str, *, repeat: int) -> dict:
    """Time the preprocessing phase (Algorithm 1) on one (pattern, document).

    Three paths: the reference dict engine, the arena engine, and the arena
    engine with the quiescent-run fast path disabled — the control showing
    what the sprint itself buys on sparse-match documents.  The document is
    a :class:`Document`, so the arena paths share one cached encoding.
    """
    spanner = Spanner.from_regex(pattern)
    automaton = spanner.compiled(text)
    compiled = spanner.runtime(text)
    document = Document(text)

    def best_seconds(run) -> float:
        best = None
        for _ in range(repeat):
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best

    counts = {
        "reference": reference_evaluate(
            automaton, text, check_determinism=False
        ).count(),
        "arena": evaluate_compiled_arena(compiled, document).count(),
        "arena-nofast": evaluate_compiled_arena(
            compiled, document, fast_path=False
        ).count(),
    }
    if len(set(counts.values())) != 1:
        raise AssertionError(f"{name}: paths disagree — {counts}")

    rows = {
        "reference": {
            "seconds": best_seconds(
                lambda: reference_evaluate(automaton, text, check_determinism=False)
            )
        },
        "arena": {
            "seconds": best_seconds(
                lambda: evaluate_compiled_arena(compiled, document)
            )
        },
        "arena-nofast": {
            "seconds": best_seconds(
                lambda: evaluate_compiled_arena(compiled, document, fast_path=False)
            )
        },
    }
    arena_seconds = rows["arena"]["seconds"]
    rows["speedup_arena_vs_reference"] = (
        rows["reference"]["seconds"] / arena_seconds if arena_seconds else float("inf")
    )
    rows["speedup_fastpath_vs_nofast"] = (
        rows["arena-nofast"]["seconds"] / arena_seconds
        if arena_seconds
        else float("inf")
    )
    return {
        "workload": name,
        "documents": 1,
        "total_chars": len(text),
        "mappings": counts["arena"],
        "results": rows,
    }


def bench_cold_preprocessing(name: str, pattern: str, text: str, *, repeat: int) -> dict:
    """Time cold preprocessing (Algorithm 1) on one (pattern, document).

    Each timed arena call gets a fresh :class:`Spanner` whose compilation
    runs before the timer starts, so the call pays for everything the
    engine builds per automaton while it runs (its per-set plans) but
    not for compiling.  The reference engine builds nothing per
    automaton, so its timing is warm by construction.
    """
    automaton = Spanner(pattern).compiled(text)

    def arena_run():
        spanner = Spanner(pattern, engine="compiled")
        document = Document(text)
        spanner.runtime(document)
        start = time.perf_counter()
        result = spanner.preprocess(document)
        return time.perf_counter() - start, result

    def best_seconds(run) -> float:
        return min(run()[0] for _ in range(repeat))

    def reference_run():
        start = time.perf_counter()
        result = reference_evaluate(automaton, text, check_determinism=False)
        return time.perf_counter() - start, result

    counts = {"reference": reference_run()[1].count(), "arena": arena_run()[1].count()}
    if len(set(counts.values())) != 1:
        raise AssertionError(f"{name}: paths disagree — {counts}")
    rows = {
        "reference": {"seconds": best_seconds(reference_run)},
        "arena": {"seconds": best_seconds(arena_run)},
    }
    arena_seconds = rows["arena"]["seconds"]
    rows["speedup_arena_vs_reference"] = (
        rows["reference"]["seconds"] / arena_seconds if arena_seconds else float("inf")
    )
    return {
        "workload": name,
        "documents": 1,
        "total_chars": len(text),
        "mappings": counts["arena"],
        "results": rows,
    }


def print_preprocessing_report(entry: dict) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['total_chars']} chars, "
        f"{entry['mappings']} mappings (preprocessing time)"
    )
    print(f"{'path':<14} {'seconds':>10} {'chars/s':>14}")
    for label in ("reference", "arena", "arena-nofast"):
        if label not in rows:
            continue
        seconds = rows[label]["seconds"]
        rate = entry["total_chars"] / seconds if seconds else float("inf")
        print(f"{label:<14} {seconds:>10.4f} {rate:>14.0f}")
    print(f"arena vs reference: {rows['speedup_arena_vs_reference']:.2f}x")
    if "speedup_fastpath_vs_nofast" in rows:
        print(f"fast path vs nofast: {rows['speedup_fastpath_vs_nofast']:.2f}x")


def print_report(entry: dict) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['total_chars']} chars, "
        f"{entry['mappings']} mappings profiled"
    )
    print(f"{'path':<12} {'p50 µs':>10} {'p99 µs':>10} {'max µs':>10} {'mean µs':>10}")
    for label in ("reference", "arena"):
        row = rows[label]
        print(
            f"{label:<12} {row['p50_seconds'] * 1e6:>10.2f} "
            f"{row['p99_seconds'] * 1e6:>10.2f} {row['max_seconds'] * 1e6:>10.2f} "
            f"{row['mean_seconds'] * 1e6:>10.2f}"
        )
    print(f"arena vs reference (mean per-mapping delay): {rows['speedup_arena_vs_reference']:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workloads for CI (a few seconds)"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "enumerate_report.json"),
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        nested_length, contact_records, limit, repeat = 30, 40, 4000, 3
        sparse_lines, explosion_chars = 2500, 5000
    else:
        nested_length, contact_records, limit, repeat = 60, 150, 20000, 5
        sparse_lines, explosion_chars = 4000, 20000

    report = {"smoke": args.smoke, "cpu_count": os.cpu_count(), "workloads": []}

    entry = bench_workload(
        "nested-captures",
        NESTED_PATTERN,
        random_document(nested_length, alphabet="ab", seed=7).text,
        limit=limit,
        repeat=repeat,
    )
    report["workloads"].append(entry)
    print_report(entry)

    entry = bench_workload(
        "contacts",
        contact_pattern(),
        contact_document(contact_records, seed=11).text,
        limit=limit,
        repeat=repeat,
    )
    report["workloads"].append(entry)
    print_report(entry)

    entry = bench_preprocessing(
        "sparse-logs-preprocessing",
        r".*ERROR worker-w{[0-9]} .*",
        server_log(
            sparse_lines, seed=17, error_rate=0.005, levels=("INFO", "WARN")
        ).text,
        repeat=repeat,
    )
    report["workloads"].append(entry)
    print_preprocessing_report(entry)

    entry = bench_cold_preprocessing(
        "set-explosion-preprocessing",
        ".*x{a" + "[ab]" * 10 + "}.*",
        random_document(explosion_chars, alphabet="ab", seed=13).text,
        repeat=repeat,
    )
    report["workloads"].append(entry)
    print_preprocessing_report(entry)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
