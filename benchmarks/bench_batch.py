"""B9 — multi-document batch throughput: reference vs compiled vs processes.

Compares three ways of evaluating one spanner over a collection of
documents:

* ``reference``  — the legacy dict-based Algorithm 1, one document at a time;
* ``compiled``   — the integer-indexed runtime (compile once, reuse dense
  tables and set plans across documents);
* ``processes``  — the compiled runtime fanned out over a multiprocessing
  pool (the automaton is pickled once per worker).

Three workloads are measured: the Census reduction of Theorem 5.2 (a large
automaton over a small alphabet — the worst case for per-character dict
walking), the Figure 1 contact-extraction scenario (a small automaton over
long natural documents), and the ``sparse-logs`` scenario (long documents,
rare matches — the quiescent-run fast-path regime, for which an extra
``compiled-nofast`` row runs the arena engine with the fast path disabled
and ``speedup_fastpath_vs_nofast`` reports the sprint's contribution).

Usage::

    python benchmarks/bench_batch.py [--smoke] [--output report.json]

``--smoke`` shrinks the workloads so the whole run takes a few seconds; it
is what CI runs on every push.  The JSON report is always written (default
``benchmarks/batch_report.json``) and uploaded as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.automata.transforms import to_deterministic_sequential_eva  # noqa: E402
from repro.core.documents import DocumentCollection  # noqa: E402
from repro.counting.census import CensusInstance  # noqa: E402
from repro.runtime.batch import run_batch  # noqa: E402
from repro.runtime.compiled import compile_eva  # noqa: E402
from repro.runtime.engine import evaluate_compiled_arena  # noqa: E402
from repro.runtime.resilience import ResiliencePolicy  # noqa: E402
from repro.spanners.spanner import Spanner  # noqa: E402
from repro.workloads.collections import scenario  # noqa: E402
from repro.workloads.spanners import random_census_nfa  # noqa: E402


def batch_drain(compiled, collection, **kwargs):
    """A callable draining one full batch run (the engine, and in process
    mode the freeze/ship/thaw round trip)."""

    def drain() -> None:
        for _pair in run_batch(compiled, collection, **kwargs):
            pass

    return drain


def batch_count(compiled, collection, **kwargs) -> int:
    """The mapping count of one untimed batch run, for cross-checking."""
    return sum(result.count() for _doc_id, result in run_batch(compiled, collection, **kwargs))


def timed_batch(compiled, collection, *, repeat: int = 1, **kwargs) -> tuple[float, int]:
    """Best wall-clock seconds of draining a full batch run, plus the count.

    The mapping count used for cross-engine verification is computed on
    one extra untimed run so that the shared DAG-counting cost does not
    dilute the engine comparison.
    """
    drain = batch_drain(compiled, collection, **kwargs)
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        drain()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, batch_count(compiled, collection, **kwargs)


def timed_nofast(compiled, collection, *, repeat: int = 1) -> tuple[float, int]:
    """Best seconds of the arena engine with the quiescent fast path off.

    The pre-PR-shaped control for the sparse-logs workload: same dense
    tables, same shared encoded buffers and set plans, but every
    character walks the Python inner loop.
    """
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        for _doc_id, document in collection.items():
            evaluate_compiled_arena(compiled, document, fast_path=False)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    total = sum(
        evaluate_compiled_arena(compiled, document, fast_path=False).count()
        for _doc_id, document in collection.items()
    )
    return best, total


#: Every sample of a gated ratio repeats its drain until it has run this
#: long: a smoke-sized drain (0.2 ms for census, 2.5 ms for contacts) is
#: far shorter than the jitter a 10% floor has to tolerate.
MIN_SAMPLE_SECONDS = 0.05


def drain_seconds(drain) -> float:
    """Per-drain seconds of one sample: *drain* repeated for at least
    :data:`MIN_SAMPLE_SECONDS`."""
    drains = 0
    start = time.perf_counter()
    while True:
        drain()
        drains += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SAMPLE_SECONDS:
            return elapsed / drains


def paired_speedup(baseline, candidate, *, pairs: int) -> tuple[float, float, float]:
    """How much faster *candidate* drains than *baseline*, from paired samples.

    The two sides' samples are interleaved, so slow machine drift hits
    both equally, and the ratio is the median of the per-pair
    ``baseline / candidate`` ratios, so one disturbed pair cannot move
    it.  Returns ``(baseline_seconds, candidate_seconds, speedup)``, the
    seconds being per-drain medians.
    """
    baseline_samples, candidate_samples, ratios = [], [], []
    for _ in range(pairs):
        before = drain_seconds(baseline)
        after = drain_seconds(candidate)
        baseline_samples.append(before)
        candidate_samples.append(after)
        ratios.append(before / after)
    return median(baseline_samples), median(candidate_samples), median(ratios)


def census_collection(num_documents: int, num_states: int, length: int):
    """The census workload: one det seVA, many copies of its document."""
    instance = CensusInstance(
        random_census_nfa(num_states, "ab", density=0.35, seed=13), length
    )
    automaton, document = instance.to_spanner()
    deterministic = to_deterministic_sequential_eva(automaton, assume_sequential=True)
    collection = DocumentCollection(name="census")
    for index in range(num_documents):
        collection.add(document, doc_id=f"census-{index}")
    return compile_eva(deterministic, check_determinism=False), collection


def bench_workload(
    name, compiled, collection, *, repeat, max_workers, nofast=False, supervised=False
):
    """Measure all execution strategies on one workload.

    *nofast* adds a ``compiled-nofast`` row (the arena engine with the
    quiescent fast path disabled) and the ``speedup_fastpath_vs_nofast``
    ratio — reported on the sparse-match workload where the sprint is the
    headline change.

    *supervised* adds a ``supervised`` row — the same serial compiled run
    under the fault-tolerance layer with injection disabled — and the
    ``speedup_supervised_vs_plain`` ratio, gating the resilience layer's
    no-fault overhead (the acceptance criterion is <=2%, i.e. a floor of
    0.98 on the ratio).

    The two gated ratios, ``speedup_compiled_vs_reference`` and
    ``speedup_supervised_vs_plain``, come from :func:`paired_speedup`
    (``2 * repeat + 1`` interleaved pairs of samples at least
    :data:`MIN_SAMPLE_SECONDS` long); their rows' seconds are the
    per-drain medians of those samples.
    """
    total_chars = collection.total_length()
    rows = {}
    pairs = 2 * repeat + 1

    reference_seconds, compiled_seconds, compiled_speedup = paired_speedup(
        batch_drain(compiled, collection, engine="reference"),
        batch_drain(compiled, collection, engine="compiled"),
        pairs=pairs,
    )
    reference_count = batch_count(compiled, collection, engine="reference")
    compiled_count = batch_count(compiled, collection, engine="compiled")
    process_seconds, process_count = timed_batch(
        compiled,
        collection,
        engine="compiled",
        mode="processes",
        chunk_size=max(1, len(collection) // (2 * max_workers)),
        max_workers=max_workers,
        repeat=repeat,
    )
    if not (reference_count == compiled_count == process_count):
        raise AssertionError(
            f"{name}: engines disagree — reference={reference_count}, "
            f"compiled={compiled_count}, processes={process_count}"
        )

    timed_rows = [
        ("reference", reference_seconds),
        ("compiled", compiled_seconds),
        ("processes", process_seconds),
    ]
    if nofast:
        nofast_seconds, nofast_count = timed_nofast(
            compiled, collection, repeat=repeat
        )
        if nofast_count != compiled_count:
            raise AssertionError(
                f"{name}: fast path changed the result — "
                f"fast={compiled_count}, nofast={nofast_count}"
            )
        timed_rows.append(("compiled-nofast", nofast_seconds))
    if supervised:
        policy = ResiliencePolicy()
        _plain_seconds, supervised_seconds, supervised_speedup = paired_speedup(
            batch_drain(compiled, collection, engine="compiled"),
            batch_drain(compiled, collection, engine="compiled", policy=policy),
            pairs=pairs,
        )
        supervised_count = batch_count(compiled, collection, engine="compiled", policy=policy)
        if supervised_count != compiled_count:
            raise AssertionError(
                f"{name}: supervision changed the result — "
                f"plain={compiled_count}, supervised={supervised_count}"
            )
        timed_rows.append(("supervised", supervised_seconds))

    for label, seconds in timed_rows:
        rows[label] = {
            "seconds": seconds,
            "chars_per_second": total_chars / seconds if seconds else float("inf"),
        }
    rows["speedup_compiled_vs_reference"] = compiled_speedup
    rows["speedup_processes_vs_serial"] = compiled_seconds / process_seconds
    if nofast:
        rows["speedup_fastpath_vs_nofast"] = nofast_seconds / compiled_seconds
    if supervised:
        rows["speedup_supervised_vs_plain"] = supervised_speedup
    return {
        "workload": name,
        "documents": len(collection),
        "total_chars": total_chars,
        "mappings": compiled_count,
        "results": rows,
    }


def print_report(entry) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['documents']} documents, "
        f"{entry['total_chars']} chars, {entry['mappings']} mappings"
    )
    print(f"{'strategy':<16} {'seconds':>10} {'chars/s':>14}")
    for label, row in rows.items():
        if isinstance(row, dict):
            print(
                f"{label:<16} {row['seconds']:>10.4f} "
                f"{row['chars_per_second']:>14.0f}"
            )
    line = (
        f"compiled vs reference: {rows['speedup_compiled_vs_reference']:.2f}x   "
        f"processes vs serial: {rows['speedup_processes_vs_serial']:.2f}x"
    )
    if "speedup_fastpath_vs_nofast" in rows:
        line += f"   fast path vs nofast: {rows['speedup_fastpath_vs_nofast']:.2f}x"
    if "speedup_supervised_vs_plain" in rows:
        line += f"   supervised vs plain: {rows['speedup_supervised_vs_plain']:.2f}x"
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workloads for CI (a few seconds)"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "batch_report.json"),
        help="path of the JSON report",
    )
    parser.add_argument(
        "--max-workers", type=int, default=min(4, os.cpu_count() or 1)
    )
    args = parser.parse_args(argv)

    if args.smoke:
        census_args = dict(num_documents=4, num_states=5, length=5)
        contact_args = dict(num_documents=4, scale=60)
        sparse_args = dict(num_documents=3, scale=1500)
        repeat = 2
    else:
        census_args = dict(num_documents=16, num_states=6, length=9)
        contact_args = dict(num_documents=16, scale=400)
        sparse_args = dict(num_documents=8, scale=2000)
        repeat = 3

    report = {
        "smoke": args.smoke,
        "max_workers": args.max_workers,
        "cpu_count": os.cpu_count(),
        "workloads": [],
    }
    if (os.cpu_count() or 1) < 2:
        print(
            "note: only one CPU is available — process mode pays its overhead "
            "without any parallel speedup on this machine"
        )

    compiled, collection = census_collection(**census_args)
    entry = bench_workload(
        "census", compiled, collection, repeat=repeat, max_workers=args.max_workers
    )
    report["workloads"].append(entry)
    print_report(entry)

    contacts = scenario(
        "contacts", num_documents=contact_args["num_documents"], scale=contact_args["scale"]
    )
    spanner = Spanner.from_regex(contacts.pattern)
    compiled = spanner.runtime("".join(doc.text for doc in contacts.collection))
    entry = bench_workload(
        "contacts",
        compiled,
        contacts.collection,
        repeat=repeat,
        max_workers=args.max_workers,
        supervised=True,
    )
    report["workloads"].append(entry)
    print_report(entry)

    sparse = scenario(
        "sparse-logs",
        num_documents=sparse_args["num_documents"],
        scale=sparse_args["scale"],
    )
    spanner = Spanner.from_regex(sparse.pattern)
    compiled = spanner.runtime("".join(doc.text for doc in sparse.collection))
    entry = bench_workload(
        "sparse-logs",
        compiled,
        sparse.collection,
        repeat=repeat,
        max_workers=args.max_workers,
        nofast=True,
    )
    report["workloads"].append(entry)
    print_report(entry)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
