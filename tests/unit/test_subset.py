"""Unit tests for the lazily determinized runtime (:mod:`repro.runtime.subset`).

A :class:`CompiledSubsetEVA` runs through the same kernel loops as a
dense automaton.  Its tables are filled on first read, so they grow
*while* a loop runs, and the loops' set plans name subsets discovered
mid-call.  These tests pin that growth across arena and count calls on
one instance, fast path on and off, and across a pickle round trip.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import set_table
from repro.spanners.spanner import Spanner

#: Non-deterministic: the subset construction tracks where the ``a``s of
#: the last six characters are, so mixed text keeps discovering subsets.
PATTERN = ".*a.....x{b}.*"
#: A quiescent b-prefix (the lone initial run sprints), then the subsets
#: are first discovered partway through the document.
DOCUMENT = "b" * 40 + "abaababbbaaabbab" * 6 + "b" * 20


def reference(document: str) -> tuple[set[str], int]:
    dag = Spanner(PATTERN, engine="reference").preprocess(document)
    return {str(mapping) for mapping in dag}, dag.count()


def arena(runtime, document: str, fast_path: bool) -> tuple[set[str], int]:
    dag = evaluate_compiled_arena(runtime, document, fast_path=fast_path)
    return {str(mapping) for mapping in dag}, dag.count()


def assert_plans_known(runtime) -> None:
    # Every set a loop met is made of subsets the runtime has interned.
    records = set_table(runtime).records
    assert records
    assert all(max(members) < runtime.num_states for members in records)


@pytest.mark.parametrize("fast_path", [True, False])
def test_slots_grow_mid_call_across_calls_and_a_pickle(fast_path):
    runtime = Spanner(PATTERN, engine="compiled-otf").otf_runtime(DOCUMENT)
    assert runtime.num_states == 1  # cold: only the initial subset
    expected = reference(DOCUMENT)

    # Every other subset is interned inside this one call.
    assert arena(runtime, DOCUMENT, fast_path) == expected
    grown = runtime.num_states
    assert grown > 1
    assert_plans_known(runtime)
    assert count_compiled(runtime, DOCUMENT, fast_path=fast_path) == expected[1]
    assert arena(runtime, DOCUMENT, fast_path) == expected
    assert runtime.num_states == grown  # warm: nothing left to discover
    assert_plans_known(runtime)

    # Only plain data crosses: no lazy table, set plan or bound
    # lookup rides along (closures would not pickle at all).
    payload = pickle.dumps(runtime)
    for name in (
        b"_LetterRow",
        b"_VariableTable",
        b"SetTable",
        b"SetRecord",
        b"getattr",
    ):
        assert name not in payload
    clone = pickle.loads(payload)
    assert clone.num_states == grown
    assert clone._set_table is None
    assert arena(clone, DOCUMENT, fast_path) == expected
    assert count_compiled(clone, DOCUMENT, fast_path=fast_path) == expected[1]
    assert clone.num_states == grown

    # The loaded instance keeps discovering, and its plans keep up.
    rng = random.Random(3)
    fresh = "".join(rng.choice("ab") for _ in range(300))
    assert arena(clone, fresh, fast_path) == reference(fresh)
    assert clone.num_states > grown
    assert count_compiled(clone, fresh, fast_path=fast_path) == reference(fresh)[1]
    assert_plans_known(clone)
