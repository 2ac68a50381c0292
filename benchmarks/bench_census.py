"""B7 — the Census reduction and the cost of counting for functional VA
(Theorem 5.2).

Counting the outputs of a *deterministic sequential* eVA is cheap
(Theorem 5.1); counting for a non-deterministic functional VA is
SpanL-complete, and the only generic route through this library is to
determinize first (cost ``O(2^|A|)``) and then run Algorithm 3.  The
benchmark makes that asymmetry concrete on Census instances: the direct
DFA-based count, the brute-force enumeration of accepted words, and the
count obtained through the spanner reduction.
"""

from __future__ import annotations

import pytest

from repro.counting.census import CensusInstance
from repro.workloads.spanners import random_census_nfa


def make_instance(num_states: int, length: int) -> CensusInstance:
    return CensusInstance(
        random_census_nfa(num_states, "ab", density=0.35, seed=13), length
    )


@pytest.mark.parametrize("length", [4, 6, 8])
def test_census_direct_dfa_count(benchmark, length):
    instance = make_instance(5, length)
    count = benchmark(instance.solve_directly)
    benchmark.extra_info["count"] = count


@pytest.mark.parametrize("length", [4, 6, 8])
def test_census_bruteforce_enumeration(benchmark, length):
    instance = make_instance(5, length)
    count = benchmark(instance.solve_by_enumeration)
    benchmark.extra_info["count"] = count
    assert count == instance.solve_directly()


@pytest.mark.parametrize("length", [4, 6])
def test_census_via_spanner_reduction(benchmark, length):
    instance = make_instance(5, length)
    count = benchmark(instance.solve_via_spanner)
    benchmark.extra_info["count"] = count
    assert count == instance.solve_directly()


@pytest.mark.parametrize("length", [4, 6])
def test_census_via_compiled_spanner_reduction(benchmark, length):
    # The compiled integer Algorithm 3 on class-indexed tables, counting
    # several passes on one compiled automaton and its set plans — the
    # steady-state batch-counting shape.
    instance = make_instance(5, length)
    count = benchmark(lambda: instance.solve_via_compiled_spanner(repeat=4))
    benchmark.extra_info["count"] = count
    assert count == instance.solve_directly()


@pytest.mark.parametrize("num_states", [3, 5, 7])
def test_census_reduction_construction_cost(benchmark, num_states):
    instance = make_instance(num_states, 5)

    def build():
        automaton, document = instance.to_spanner()
        return automaton.num_states, len(document)

    states, doc_length = benchmark(build)
    benchmark.extra_info["reduction_states"] = states
    benchmark.extra_info["document_length"] = doc_length
