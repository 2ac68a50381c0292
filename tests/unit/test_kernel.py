"""Unit tests for the Algorithm-1 loops (:mod:`repro.runtime.kernel`).

What lives here:

* the module's shape — every loop it exports has a production caller,
  and the ``kernel=`` names are checked in one place;
* the set table's bound: clearing it mid-document changes nothing;
* the count loop's run powers: exact past 2^64 on both automaton forms,
  off with the fast path, at most ``⌊log2 k⌋ + 1`` squares for a run of
  ``k``, and exact while the table clears mid-run;
* the plans' one-letter lookahead: on the contact workload every built
  node is reachable, the perfbench workloads' mappings come out in the
  same order as before it, a capture at the document's end is kept, and
  one-character chunks build the whole-document arena;
* idle stretches: on the contact workload the skip changes no arena and
  no count, chunk cuts inside a stretch change nothing, and the loops
  make one stop-pattern search per maximal stretch; a class on which a
  capture survives ends a stretch; past 256 classes
  (an ``array`` buffer) idle plans step one character and never search;
  and
* degenerate documents (empty, single character) driven through
  :func:`harness.assert_all_engines_agree`, which routes every engine ×
  chunking combination through these loops — exactly the inputs where
  a loop's entry and final capture edges are most likely to drift
  between the whole-document and chunk-fed routes.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Spanner
from repro.runtime import kernel, runlength
from repro.runtime.subset import NO_TARGET
from repro.runtime.dag import NIL
from repro.runtime.engine import _collect_arena, count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import IDLE, POWER_MIN, set_table
from repro.runtime.streaming import StreamingEvaluator
from repro.workloads.collections import scenario

from harness import (
    AUTOMATON_FORMS,
    adversarial_chunkings,
    assert_all_engines_agree,
    assert_arena_identical,
    automaton_form,
    plans_forbidden,
)

PATTERNS = [
    "x{a*b}",
    ".*x{a+b}.*",
    ".*x{a}.*y{b}.*",
]


class TestKernelModule:
    def test_every_loop_has_a_production_caller(self):
        # A function kernel.py exports that no engine module (and no
        # loop an engine calls) references is dead weight.  A fresh
        # interpreter, so only what `import repro` binds counts.
        script = (
            "import repro\n"
            "from repro.runtime import engine, kernel, streaming, subset\n"
            "bound = {\n"
            "    id(value)\n"
            "    for module in (engine, streaming, subset)\n"
            "    for value in vars(module).values()\n"
            "}\n"
            "loops = [\n"
            "    name for name in kernel.__all__\n"
            "    if callable(getattr(kernel, name)) and id(getattr(kernel, name)) in bound\n"
            "]\n"
            "called = {\n"
            "    name for loop in loops\n"
            "    for name in getattr(kernel, loop).__code__.co_names\n"
            "}\n"
            "dead = [\n"
            "    name for name in kernel.__all__\n"
            "    if callable(getattr(kernel, name))\n"
            "    and name not in loops and name not in called\n"
            "]\n"
            "assert not dead, dead\n"
            "print(sorted(loops))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str(
            [
                "arena_loop",
                "count_loop",
                "set_table",
            ]
        )

    def test_kernel_axis_is_defined_once(self):
        # The accepted kernel= names are checked by resolve_kernel alone,
        # the only thing left in runlength.py, and every name runs the
        # one count loop.
        assert runlength.__all__ == ["resolve_kernel"]
        for name in ("auto", "scalar", "runlength"):
            assert runlength.resolve_kernel(name) == "scalar"
            assert Spanner("x{a}", kernel=name).kernel == name
        for check in (
            lambda: runlength.resolve_kernel("warp"),
            lambda: Spanner("x{a}", kernel="warp"),
            lambda: Spanner("x{a}").count("a", kernel="warp"),
        ):
            with pytest.raises(ValueError, match="kernel"):
                check()


class TestDegenerateDocuments:
    """Empty and single-character documents across every loop route."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_empty_document(self, pattern):
        assert_all_engines_agree(pattern, "")

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("char", ["a", "b", "z", "é"])
    def test_single_character(self, pattern, char):
        assert_all_engines_agree(pattern, char)


class TestSetTable:
    """The interned active sets, cleared at their cap mid-document."""

    PATTERN = ".*x{a" + "[ab]" * 6 + "}.*"

    def test_table_past_its_cap_mid_document_matches_the_reference(self, monkeypatch):
        text = "".join(random.Random(4).choice("ab") for _ in range(400))
        expected = Spanner(self.PATTERN).preprocess(text, engine="reference")
        uncapped = Spanner(self.PATTERN).runtime(text)
        whole = evaluate_compiled_arena(uncapped, text)
        assert len(set_table(uncapped).records) > 8
        # Plans for every set (no state-loop fallback), in a table that
        # holds at most 8 records: it is cleared over and over while the
        # loops hold records from before the clear.
        monkeypatch.setattr(kernel, "SET_TABLE_CAP", 8)
        monkeypatch.setattr(kernel, "PLAN_CREDIT", len(text) * 4)
        for form in AUTOMATON_FORMS:
            runtime = automaton_form(Spanner(self.PATTERN), form)
            arena = evaluate_compiled_arena(runtime, text)
            assert len(set_table(runtime).records) <= 8
            assert {str(m) for m in arena} == {str(m) for m in expected}
            assert count_compiled(runtime, text) == expected.count()
            if form == "sequential":  # the same source as ``whole``'s
                assert_arena_identical(arena, whole)


def power_calls(monkeypatch) -> list[int]:
    """Record the run length ``k`` of every power application."""
    lengths: list[int] = []
    power = kernel._power

    def spy(record, symbol, repeat, k, counts):
        lengths.append(k)
        return power(record, symbol, repeat, k, counts)

    monkeypatch.setattr(kernel, "_power", spy)
    return lengths


def power_tables(runtime) -> list[tuple]:
    """Every ``(record, class, squares)`` in *runtime*'s set table."""
    return [
        (record, symbol, squares)
        for record in set_table(runtime).records.values()
        for symbol, squares in (record.powers or {}).items()
    ]


class TestRunPowers:
    """The count loop's repeats and binary powers over long runs."""

    def test_large_exact_count_beyond_int64(self, monkeypatch):
        # Three captures over 20k characters: about 2^70 mappings, far
        # past what int64 could hold; the powers stay exact on both
        # automaton forms.
        lengths = power_calls(monkeypatch)
        spanner = Spanner(".*x{a+}.*y{a+}.*z{a+}.*")
        document = ("a" * 4000 + "b") * 5
        expected = count_compiled(spanner.runtime(document), document, fast_path=False)
        assert expected > 2**64
        for runtime in [automaton_form(spanner, form) for form in AUTOMATON_FORMS]:
            lengths.clear()
            assert count_compiled(runtime, document) == expected
            assert lengths and max(lengths) > 3000

    def test_powers_equal_stepping_every_run_length(self):
        # Runs from 0 to past 3 * POWER_MIN, cold and warm: repeats alone,
        # repeats plus one power, and several powers all count exactly.
        spanner = Spanner(".*x{a+}.*y{b}.*")
        for k in range(3 * POWER_MIN + 3):
            text = "b" + "a" * k + "b" + "a" * (k // 2)
            expected = spanner.count(text, engine="reference")
            for runtime in [automaton_form(spanner, form) for form in AUTOMATON_FORMS]:
                assert count_compiled(runtime, text, fast_path=False) == expected
                assert count_compiled(runtime, text) == expected, (k, runtime)

    def test_fast_path_off_builds_no_powers(self, monkeypatch):
        lengths = power_calls(monkeypatch)
        spanner = Spanner(".*x{a+}.*")
        document = "b" + "a" * 5000 + "b"
        for runtime in [automaton_form(spanner, form) for form in AUTOMATON_FORMS]:
            lengths.clear()
            count = count_compiled(runtime, document, fast_path=False)
            assert power_tables(runtime) == [] and lengths == []
            assert count_compiled(runtime, document) == count
            assert power_tables(runtime) and lengths

    @pytest.mark.parametrize("k", [2 * POWER_MIN, 100, 1 << 10, 5000])
    def test_a_run_of_k_builds_at_most_log2_k_plus_one_powers(self, k):
        spanner = Spanner(".*x{a+}.*y{a+}.*")
        document = "b" + "a" * k + "b"
        for runtime in [automaton_form(spanner, form) for form in AUTOMATON_FORMS]:
            count_compiled(runtime, document)
            tables = power_tables(runtime)
            assert tables
            for _record, _symbol, squares in tables:
                assert 1 <= len(squares) <= k.bit_length()

    def test_counts_stay_exact_when_the_table_clears_during_a_run(self, monkeypatch):
        # A table of 2 records is cleared at nearly every new set, also
        # between a fixed point's step and its powers; plans are kept
        # (no state-loop fallback), so the power path runs on records
        # the table has already dropped.
        spanner = Spanner(".*x{a+}.*y{a+}.*z{a+}.*")
        document = ("a" * 300 + "b" + "ab" * 3) * 4
        expected = spanner.count(document, engine="reference")
        monkeypatch.setattr(kernel, "SET_TABLE_CAP", 2)
        monkeypatch.setattr(kernel, "PLAN_CREDIT", len(document) * 4)
        lengths = power_calls(monkeypatch)
        for form in AUTOMATON_FORMS:
            runtime = automaton_form(Spanner(spanner.source), form)
            for _ in range(2):
                lengths.clear()
                assert count_compiled(runtime, document) == expected
                assert count_compiled(runtime, document, fast_path=False) == expected
                assert len(set_table(runtime).records) <= 2
                assert len(lengths) >= 4


def mapping_digest(spanner: Spanner, texts) -> str:
    """sha256 of the mappings of *texts*, one line per text, each mapping
    as its sorted ``(variable, begin, end)`` triples, in enumeration
    order."""
    digest = hashlib.sha256()
    for text in texts:
        for mapping in spanner.enumerate(text):
            triples = sorted((name, span.begin, span.end) for name, span in mapping.items())
            digest.update(repr(triples).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def first_round(name: str, sizes, matches=None) -> list[str]:
    """The first round of texts of a perfbench run with seed 1: one text
    per size, drawn like ``perfbench/library.py`` draws them (redrawn
    until ``marker`` occurs ``max(1, round(rate * size))`` times when
    *matches* is ``(marker, rate)``)."""
    texts = []
    for index, size in enumerate(sizes):
        for attempt in range(1000):
            seed = 100_003 + index + attempt * 10**12
            text = next(iter(scenario(name, num_documents=1, scale=size, seed=seed).collection)).text
            if matches is None or text.count(matches[0]) == max(1, round(matches[1] * size)):
                break
        texts.append(text)
    return texts


class TestLookahead:
    """A plan leaves out the captures its next letter kills."""

    #: Per perfbench workload: its scenario, the scale that fixes the
    #: pattern, the first round's sizes, the redraw rule, and the sha256
    #: :func:`mapping_digest` of those texts' mappings, computed with the
    #: engine as it stood before plans looked a letter ahead.  The
    #: nested-output digest is the order of the lazily determinized
    #: automaton, whose subset ids (and so enumeration order) differ from
    #: those of an up-front determinization on this nondeterministic
    #: pattern; it was computed on that automaton before it became the
    #: only one.
    WORKLOADS = {
        "logs-sparse": (
            "sparse-logs", 250, (62, 125, 250, 500, 1000), (" ERROR worker-", 0.005),
            "00301cb366dcdc9a354f1ed54fd987e6434655cf93b7a9ceadc9d29291e40560",
        ),
        "contacts-dense": (
            "contacts", 100, (50, 100, 200, 400, 800), None,
            "47a0ee3b04d4e1f889dbcf5bf13bbdf8f02d570d7d3453a12d35e5e631a8352d",
        ),
        "nested-output": (
            "nested", 8, (10, 12, 14, 16, 20), None,
            "1f6dea970de6c2b18673a4166692c49f30fae2e4373199ba0e4e4bd18ff8e0ab",
        ),
    }

    @pytest.mark.parametrize("scale", [50, 800])
    def test_every_built_node_is_reachable_on_contacts(self, scale):
        # Four nodes per record: the name and the email or phone, each
        # opened and closed; every other capture dies on its next letter.
        built = scenario("contacts", num_documents=1, scale=scale)
        text = next(iter(built.collection)).text
        for form in AUTOMATON_FORMS:
            dag = evaluate_compiled_arena(automaton_form(Spanner(built.pattern), form), text)
            assert dag.num_nodes() == dag.node_count() == 4 * scale

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_mappings_and_their_order_are_unchanged(self, workload):
        name, scale, sizes, matches, expected = self.WORKLOADS[workload]
        spanner = Spanner(scenario(name, num_documents=1, scale=scale).pattern)
        assert mapping_digest(spanner, first_round(name, sizes, matches)) == expected

    @pytest.mark.parametrize("text", ["a", "abc"])
    def test_a_capture_at_the_document_end_survives(self, text):
        # The name closes at the end, where no letter follows to look at.
        spanner = Spanner("name{[a-z]+}")
        expected = [f"Mapping({{'name': Span(0, {len(text)})}})"]
        assert [str(mapping) for mapping in spanner.enumerate(text)] == expected
        assert_all_engines_agree(spanner.source, text)
        tail = Spanner(".*name{[a-z]+}")
        arena = evaluate_compiled_arena(tail.runtime(text), text)
        assert {str(m) for m in arena} == {str(m) for m in tail.evaluate(text, engine="reference")}
        # Mid-document closes die on the next letter and are left out;
        # the one unreachable node is the name opened at the very end,
        # kept because no letter follows to rule it out.
        assert arena.num_nodes() == arena.node_count() + 1

    def test_one_character_chunks_build_the_whole_document_arena(self):
        built = scenario("contacts", num_documents=1, scale=50)
        text = next(iter(built.collection)).text
        runtime = Spanner(built.pattern).runtime(text)
        whole = evaluate_compiled_arena(runtime, text)
        stream = StreamingEvaluator(runtime)
        for char in text:
            stream.feed(char)
        assert_arena_identical(stream.finish(), whole)


def idle_stretches(compiled, buf, n: int) -> int:
    """The number of maximal idle stretches in ``buf[:n]``, read off the
    automaton's tables position by position rather than off the plans.

    A position is idle when every live state self-loops on its class and
    every capture's target dies on it; a lone silent run is the sprint's,
    not a stretch.
    """
    class_table = compiled.class_table
    variable_table = compiled.variable_table
    live = (compiled.initial,)
    stretches = 0
    was_idle = False
    for pos in range(n):
        symbol = buf[pos]
        targets = [target for state in live for _set_id, target in variable_table[state]]
        idle = (
            not (len(live) == 1 and compiled.silent[live[0]])
            and all(class_table[state][symbol] == state for state in live)
            and all(class_table[target][symbol] < 0 for target in targets)
        )
        stretches += idle and not was_idle
        was_idle = idle
        if not idle:
            moved = {class_table[state][symbol] for state in (*live, *targets)}
            live = tuple(sorted(moved - {NO_TARGET}))
            if not live:
                break
    return stretches


class SearchCounter:
    """A stop pattern that counts its ``search`` calls."""

    def __init__(self, pattern) -> None:
        self.pattern = pattern
        self.calls = 0

    def search(self, buf, pos):
        self.calls += 1
        return self.pattern.search(buf, pos)


def count_searches(runtime) -> list[SearchCounter]:
    """Wrap the stop pattern of every set in *runtime*'s table that is
    not a lone silent run (the sprint's)."""
    counters = []
    for record in set_table(runtime).records.values():
        lone_silent = record.quiet and len(record.members) == 1
        if record.pattern is not None and not lone_silent:
            record.pattern = SearchCounter(record.pattern)
            counters.append(record.pattern)
    return counters


def chunked_arena(runtime, text: str, lengths):
    """*text*'s arena from one :func:`kernel.arena_loop` call per chunk of
    the given *lengths* and a final call on an empty buffer, as a stream
    runs it (on either automaton form)."""
    buf = runtime.encode(text).buffer
    arena = ([], [], [], [], [NIL], [NIL])
    record, slots = set_table(runtime).record((runtime.initial,)), (0, 0)
    offset = 0
    for length in [*lengths, 0]:
        piece = buf[offset : offset + length]
        record, slots = kernel.arena_loop(
            runtime, piece, length, offset, record, slots, *arena, True, length == 0
        )
        offset += length
        if record is None:
            break
    return _collect_arena(runtime, len(text), record, slots, arena)


def contacts(scale: int) -> tuple[str, str]:
    built = scenario("contacts", num_documents=1, scale=scale)
    return built.pattern, next(iter(built.collection)).text


class TestIdleStretches:
    """Idle plans step past a position and search for the next stop."""

    @pytest.mark.parametrize("scale", [50, 800])
    @pytest.mark.parametrize("form", AUTOMATON_FORMS)
    def test_the_skip_changes_no_arena_and_no_count(self, scale, form):
        pattern, text = contacts(scale)
        spanner = Spanner(pattern)
        runtime = automaton_form(spanner, form)
        whole = evaluate_compiled_arena(runtime, text)
        assert_arena_identical(evaluate_compiled_arena(runtime, text, fast_path=False), whole)
        expected = spanner.preprocess(text, engine="reference")
        assert {str(m) for m in whole} == {str(m) for m in expected}
        assert count_compiled(runtime, text) == expected.count() == scale
        records = set_table(runtime).records.values()
        assert any(plan is IDLE for record in records for plan in record.plans)
        # The state loops step through the stretches instead.
        with plans_forbidden(runtime, len(text)):
            assert_arena_identical(evaluate_compiled_arena(runtime, text), whole)
            assert count_compiled(runtime, text) == scale

    @pytest.mark.parametrize("scale", [50, 800])
    @pytest.mark.parametrize("form", AUTOMATON_FORMS)
    def test_chunk_cuts_inside_stretches_build_the_whole_arena(self, scale, form):
        pattern, text = contacts(scale)
        runtime = automaton_form(Spanner(pattern), form)
        whole = evaluate_compiled_arena(runtime, text)
        chunkings = dict(adversarial_chunkings(text, seed=scale))
        for label in ("single-chars", "random-0", "random-1"):
            chunked = chunked_arena(runtime, text, [len(chunk) for chunk in chunkings[label]])
            assert_arena_identical(chunked, whole, context=f" ({label})")

    @pytest.mark.parametrize("scale", [50, 800])
    @pytest.mark.parametrize("form", AUTOMATON_FORMS)
    def test_one_search_per_maximal_idle_stretch(self, scale, form):
        pattern, text = contacts(scale)
        runtime = automaton_form(Spanner(pattern), form)
        evaluate_compiled_arena(runtime, text)  # builds the plans and patterns
        encoded = runtime.encode(text)
        stretches = idle_stretches(runtime, encoded.buffer, encoded.length)
        assert stretches > scale
        for loop in (count_compiled, evaluate_compiled_arena):
            counters = count_searches(runtime)
            loop(runtime, text)
            assert sum(counter.calls for counter in counters) == stretches, loop

    @pytest.mark.parametrize("form", AUTOMATON_FORMS)
    def test_a_class_a_capture_survives_ends_the_stretch(self, form):
        # The initial set of ".*x{a+b}.*" self-loops on every letter, and
        # is idle on "c", but its capture survives "a": the skip must stop
        # there although no member moves on it.
        spanner = Spanner(".*x{a+b}.*")
        text = "c" * 20 + "aab" + "c" * 20 + "ab"
        runtime = automaton_form(spanner, form)
        whole = evaluate_compiled_arena(runtime, text)
        assert_arena_identical(evaluate_compiled_arena(runtime, text, fast_path=False), whole)
        expected = spanner.evaluate(text, engine="reference")
        assert {str(m) for m in whole} == {str(m) for m in expected}
        assert count_compiled(runtime, text) == 3

    def test_more_than_256_classes_step_idle_plans_without_a_search(self, monkeypatch):
        # 300 letters, each its own class: the buffer is an array, so the
        # initial set's idle plans step one character each, no stop
        # pattern is built, and the lone silent runs are chased row by
        # row: into a capturing state, to the end of the text, and dead.
        wide = [chr(0x400 + i) for i in range(300)]
        pattern = f"[{''.join(wide)}]*x{{a}}({'|'.join(c * 3 for c in wide)})y{{b}}.*"
        head = "".join(wide[7 * i % 300] for i in range(40)) + "a" + wide[5]
        text = head + wide[5] * 2 + "b" + "".join(wide[3 * i % 300] for i in range(30))
        dying = head + wide[6] + "b"
        spanner = Spanner(pattern)
        runtime = spanner.runtime(text)
        assert runtime.classing.num_ids > 256
        assert not isinstance(runtime.encode(text).buffer, bytes)
        sprints = []
        sprint = kernel.sprint

        def spy(table, buf, pos, n, state, use_patterns):
            result = sprint(table, buf, pos, n, state, use_patterns)
            sprints.append((use_patterns, result))
            return result

        monkeypatch.setattr(kernel, "sprint", spy)
        assert count_compiled(runtime, text) == 1
        assert count_compiled(runtime, dying) == spanner.count(dying, engine="reference") == 0
        assert [use_patterns for use_patterns, _result in sprints] == [False] * 3
        assert [result[1] for _use_patterns, result in sprints] == [44, len(text), 43]
        assert sprints[-1][1][0] < 0
        records = set_table(runtime).records.values()
        assert any(plan is IDLE for record in records for plan in record.plans)
        assert all(record.pattern is None for record in records)
        assert_all_engines_agree(pattern, text, spanner=spanner)
