"""B6 — algebra operator constructions and end-to-end algebra evaluation
(Proposition 4.4, Propositions 4.5/4.6).

Measures (a) the size and construction time of automaton-level join / union /
projection on functional eVA, and (b) the end-to-end evaluation of an algebra
expression over contact documents through the full pipeline, compared with
the set-level evaluation of the same expression.

Run as a script, it additionally benchmarks the cost-based optimizer against
the monolithic compile-then-enumerate route on the ``join-heavy`` workload
(a join of periodic atoms whose fused product automaton has ``Θ(∏ periods)``
states) and writes a JSON report CI gates against
``benchmarks/baselines/algebra_smoke.json``::

    python benchmarks/bench_algebra.py --smoke --output benchmarks/algebra_report.json

In the report, ``reference`` is the monolithic route (compile the whole
expression into one automaton, determinize it lazily, then enumerate — the
paper's Propositions 4.5/4.6 evaluation); ``speedup_hybrid_vs_reference``
is the gated, machine-portable ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest  # noqa: E402

from repro.algebra.automaton_ops import join_eva, project_eva, union_eva  # noqa: E402
from repro.algebra.compile import evaluate_expression_setwise  # noqa: E402
from repro.automata.transforms import va_to_eva  # noqa: E402
from repro.regex.compiler import compile_to_va  # noqa: E402
from repro.spanners.spanner import Spanner  # noqa: E402
from repro.workloads.documents import contact_document  # noqa: E402
from repro.workloads.spanners import contact_expression  # noqa: E402

LEFT_PATTERN = "x{a+}b*"
RIGHT_PATTERN = "x{a+}y{b*}"
ALPHABET = "ab"


@pytest.fixture(scope="module")
def operand_evas():
    left = va_to_eva(compile_to_va(LEFT_PATTERN, ALPHABET))
    right = va_to_eva(compile_to_va(RIGHT_PATTERN, ALPHABET))
    return left, right


def test_join_construction(benchmark, operand_evas):
    left, right = operand_evas
    joined = benchmark(lambda: join_eva(left, right))
    benchmark.extra_info["left_states"] = left.num_states
    benchmark.extra_info["right_states"] = right.num_states
    benchmark.extra_info["join_states"] = joined.num_states
    assert joined.num_states <= left.num_states * right.num_states


def test_union_construction(benchmark, operand_evas):
    left, right = operand_evas
    union = benchmark(lambda: union_eva(left, right))
    benchmark.extra_info["union_states"] = union.num_states
    assert union.num_states <= left.num_states + right.num_states + 1


def test_projection_construction(benchmark, operand_evas):
    _left, right = operand_evas
    projected = benchmark(lambda: project_eva(right, ["y"]))
    benchmark.extra_info["projected_states"] = projected.num_states
    assert projected.num_states <= right.num_states


@pytest.mark.parametrize("records", [5, 10, 20])
def test_algebra_expression_via_compiled_automaton(benchmark, records):
    expression = contact_expression()
    spanner = Spanner.from_expression(expression)
    document = contact_document(records, seed=3)
    count = benchmark(lambda: len(spanner.evaluate(document)))
    benchmark.extra_info["outputs"] = count


@pytest.mark.parametrize("records", [5, 10])
def test_algebra_expression_setwise_for_comparison(benchmark, records):
    expression = contact_expression()
    document = contact_document(records, seed=3)
    count = benchmark(lambda: len(evaluate_expression_setwise(expression, document.text)))
    benchmark.extra_info["outputs"] = count


# ---------------------------------------------------------------------- #
# Script mode: optimizer (hybrid) vs monolithic compile-then-enumerate
# ---------------------------------------------------------------------- #


def timed_route(expression, collection, engine: str, repeat: int) -> tuple[float, int]:
    """Best end-to-end seconds (fresh compile + full batch) and the count.

    A fresh :class:`Spanner` per repetition keeps compilation inside the
    timed region — the whole point of the comparison is that the hybrid
    plan never pays the monolithic product construction + determinization.
    """
    best = None
    total = 0
    for _ in range(repeat):
        start = time.perf_counter()
        spanner = Spanner.from_expression(expression, engine=engine)
        total = sum(result.count() for _doc_id, result in spanner.run_batch(collection))
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, total


def bench_optimizer_workload(*, num_documents: int, length: int, repeat: int) -> dict:
    """The ``join-heavy`` workload: hybrid vs monolithic routes."""
    from repro.workloads.collections import scenario

    built = scenario("join-heavy", num_documents=num_documents, scale=length)
    expression = built.expression
    collection = built.collection

    # Probe the plan run_batch will use (a spanner compiles once, so the
    # document argument does not change it); fail fast if the cost model
    # ever stops cutting this expression — the "hybrid" lane below would
    # otherwise silently time a fused plan and the gate failure would
    # mislead.
    hybrid_plan = Spanner.from_expression(expression).plan(
        "".join(sorted(collection.alphabet()))
    )
    if hybrid_plan.engine != "hybrid":
        raise AssertionError(
            f"join-heavy is expected to produce a hybrid plan, got "
            f"{hybrid_plan.engine!r} ({hybrid_plan.reason})"
        )
    hybrid_seconds, hybrid_count = timed_route(expression, collection, "auto", repeat)
    mono_seconds, mono_count = timed_route(expression, collection, "compiled", repeat)
    if hybrid_count != mono_count:
        raise AssertionError(
            f"join-heavy: routes disagree — hybrid={hybrid_count}, "
            f"monolithic={mono_count}"
        )

    total_chars = collection.total_length()
    rows = {
        label: {
            "seconds": seconds,
            "chars_per_second": total_chars / seconds if seconds else float("inf"),
        }
        for label, seconds in (
            ("hybrid", hybrid_seconds),
            ("reference", mono_seconds),
        )
    }
    rows["speedup_hybrid_vs_reference"] = mono_seconds / hybrid_seconds
    return {
        "workload": "join_heavy",
        "documents": len(collection),
        "total_chars": total_chars,
        "mappings": hybrid_count,
        "hybrid_plan_engine": hybrid_plan.engine,
        "results": rows,
    }


def print_report(entry: dict) -> None:
    rows = entry["results"]
    print(
        f"\n### {entry['workload']}: {entry['documents']} documents, "
        f"{entry['total_chars']} chars, {entry['mappings']} mappings"
    )
    print(f"{'route':<16} {'seconds':>10} {'chars/s':>14}")
    for label in ("hybrid", "reference"):
        row = rows[label]
        print(f"{label:<16} {row['seconds']:>10.4f} {row['chars_per_second']:>14.0f}")
    print(
        f"hybrid vs monolithic (compile-then-enumerate): "
        f"{rows['speedup_hybrid_vs_reference']:.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="optimizer (hybrid) vs monolithic algebra evaluation"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workload for CI (a few seconds)"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "algebra_report.json"),
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        workload_args = dict(num_documents=6, length=1200, repeat=2)
    else:
        workload_args = dict(num_documents=16, length=2000, repeat=3)

    entry = bench_optimizer_workload(**workload_args)
    print_report(entry)
    report = {"smoke": args.smoke, "cpu_count": os.cpu_count(), "workloads": [entry]}
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
