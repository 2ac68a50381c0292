"""Threads sharing one :class:`~repro.Spanner`.

An evaluation keeps its loop state to itself; what threads share is the
compiled automaton, its lazily filled tables and its set plans, which
only ever grow by complete entries.  Four threads alternate ``count``
and ``evaluate`` on one contacts spanner while the subsets and plans are
still being built, and every result must equal the serial one: arenas
array for array once the subset ids are fixed, counts and mapping
multisets everywhere.  Four more count long-run documents, which share
the count loop's run powers.  One thread's call renews the automaton
past its subset cap while another's is held mid-call on the old one.
"""

from __future__ import annotations

import sys
import threading

from repro import Document, Spanner
from repro.runtime import engine, subset
from repro.runtime.kernel import set_table
from repro.workloads.collections import scenario

THREADS = 4
CALLS = 20
ARENA_ARRAYS = (
    "node_markers",
    "node_positions",
    "node_starts",
    "node_ends",
    "cell_nodes",
    "cell_nexts",
    "final_entries",
)


def contacts_texts() -> tuple[str, list[str]]:
    built = scenario("contacts", num_documents=THREADS, scale=30, seed=5)
    return built.pattern, [document.text for document in built.collection]


def arena_of(spanner: Spanner, text: str) -> tuple:
    dag = spanner.preprocess(Document(text))
    return tuple(tuple(getattr(dag, name)) for name in ARENA_ARRAYS)


def outcome(spanner: Spanner, text: str, call: int, arenas: bool, count_only: bool = False):
    if count_only or call % 2:
        return spanner.count(Document(text))
    if arenas:
        return arena_of(spanner, text)
    return sorted(str(mapping) for mapping in spanner.evaluate(Document(text)))


def run_threads(
    spanner: Spanner, texts: list[str], arenas: bool, count_only: bool = False
) -> list[list]:
    """Each thread alternates count/evaluate (or only counts) over all
    texts, starting at its own text; returns each thread's outcomes in
    call order."""
    results: list[list] = [[] for _ in range(THREADS)]
    errors: list[Exception] = []
    start = threading.Barrier(THREADS)

    def work(thread: int) -> None:
        try:
            start.wait()
            for call in range(CALLS):
                text = texts[(thread + call) % len(texts)]
                results[thread].append(outcome(spanner, text, call, arenas, count_only))
        except Exception as error:  # surfaced below, with its type
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors
    return results


def serial_outcomes(
    spanner: Spanner, texts: list[str], arenas: bool, count_only: bool = False
) -> list[list]:
    return [
        [
            outcome(spanner, texts[(thread + call) % len(texts)], call, arenas, count_only)
            for call in range(CALLS)
        ]
        for thread in range(THREADS)
    ]


def test_compiled_threads_match_serial_calls():
    pattern, texts = contacts_texts()
    expected = serial_outcomes(Spanner(pattern, engine="compiled"), texts, arenas=False)
    # A fresh spanner: subsets and set plans are built while the threads run.
    assert run_threads(Spanner(pattern, engine="compiled"), texts, arenas=False) == expected


def test_otf_threads_match_serial_calls():
    pattern, texts = contacts_texts()
    expected = serial_outcomes(Spanner(pattern), texts, arenas=False)
    # Cold: subsets are discovered concurrently, so their ids (and with
    # them the arena layout) follow the interleaving; the outputs do not.
    cold = Spanner(pattern)
    assert run_threads(cold, texts, arenas=False) == expected
    # Warm subsets, cold plans: with the ids fixed, arenas are identical.
    runtime = cold.runtime()
    serial = serial_outcomes(cold, texts, arenas=True)
    runtime._set_table = None
    assert run_threads(cold, texts, arenas=True) == serial
    assert set_table(runtime).records


def test_concurrent_discovery_interns_each_subset_once():
    pattern, texts = contacts_texts()
    spanner = Spanner(pattern)
    run_threads(spanner, texts, arenas=False)
    runtime = spanner.runtime()
    members = runtime.subset_members
    # One id per subset, and every per-subset table has its entry.
    assert len(set(members)) == len(members) == runtime.num_states
    assert len(runtime.class_table) == len(runtime.silent) == runtime.num_states


def test_counts_over_long_runs_match_serial_calls():
    # Long runs take the count loop's powers: the threads build one
    # record's squares concurrently, and every count stays exact.
    pattern = ".*x{a+}.*y{a+}.*z{a+}.*"
    texts = [("a" * (400 * (index + 1)) + "b") * 3 + "a" * 77 for index in range(THREADS)]
    expected = serial_outcomes(Spanner(pattern), texts, arenas=False, count_only=True)
    cold = Spanner(pattern)
    assert run_threads(cold, texts, arenas=False, count_only=True) == expected


def test_a_swap_leaves_a_call_in_flight_on_its_generation(monkeypatch):
    pattern, texts = contacts_texts()
    spanner = Spanner(pattern)
    expected = [sorted(str(m) for m in spanner.evaluate(text)) for text in texts]
    old = spanner.runtime()
    entered, release = threading.Event(), threading.Event()
    arena_loop = engine.arena_loop

    def held(*args, **kwargs):
        if threading.current_thread().name == "held":
            entered.set()
            assert release.wait(60)
        return arena_loop(*args, **kwargs)

    monkeypatch.setattr(engine, "arena_loop", held)
    results: dict[str, object] = {}

    def call(name: str, text: str) -> None:
        dag = spanner.preprocess(text)
        results[name] = (dag.tables, sorted(str(m) for m in dag))

    holder = threading.Thread(target=call, args=("held", texts[0]), name="held")
    holder.start()
    try:
        assert entered.wait(10)
        swaps = subset.generation_swaps()
        monkeypatch.setattr(subset, "SUBSET_CAP", old.num_states - 1)
        swapper = threading.Thread(target=call, args=("swapper", texts[1]), name="swapper")
        swapper.start()
        swapper.join(timeout=60)
        assert not swapper.is_alive()
        assert subset.generation_swaps() == swaps + 1
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()
    assert results["held"] == (old, expected[0])
    renewed, mappings = results["swapper"]
    assert renewed is old._successor() and mappings == expected[1]
