"""Unit tests for the run-length kernel (repro.runtime.runlength)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.documents import Document
from repro.core.errors import EvaluationError
from repro.runtime import runlength
from repro.runtime.plan import KERNEL_CHOICES
from repro.runtime.runlength import (
    KERNELS,
    RUNLENGTH_MIN_CHARS,
    count_runlength,
    count_with_kernel,
    prefers_runlength,
    resolve_kernel,
    runlength_kernel,
)
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.spanners.spanner import Spanner
from repro.workloads.documents import server_log


PATTERN = ".*x{a+}.*"
DOCUMENT = "bbaaab" + "a" * 40 + "bb"


@pytest.fixture
def runtime():
    return Spanner(PATTERN).runtime(DOCUMENT)


def both_forms():
    """The dense and the lazily determinized automaton of PATTERN, with
    every subset DOCUMENT reaches already discovered."""
    spanner = Spanner(PATTERN)
    otf = spanner.otf_runtime(DOCUMENT)
    count_compiled(otf, DOCUMENT)
    return [spanner.runtime(DOCUMENT), otf]


def lookups(automaton):
    """``(states, variable_row, letter_successor)`` read straight off the
    automaton's own tables — the brute-force side of the kernel tests."""
    return (
        range(automaton.num_states),
        automaton.variable_table.__getitem__,
        lambda state, cls: automaton.class_table[state][cls],
    )


def brute_step(automaton, vector, cls):
    """One position of Algorithm 3: capture phase, then read class *cls*."""
    _states, variable_row, letter_successor = lookups(automaton)
    captured = dict(vector)
    for state, amount in vector.items():
        for _set_id, target in variable_row(state):
            captured[target] = captured.get(target, 0) + amount
    out = {}
    for state, amount in captured.items():
        target = letter_successor(state, cls)
        if target >= 0:
            out[target] = out.get(target, 0) + amount
    return out


def arena_arrays(dag):
    return (
        list(dag.node_markers),
        list(dag.node_positions),
        list(dag.node_starts),
        list(dag.node_ends),
        list(dag.cell_nodes),
        list(dag.cell_nexts),
        list(dag.final_entries),
    )


class TestKernelConstruction:
    def test_kernel_axis_mirrors_plan_choices(self):
        # The tuple is duplicated on purpose (the strictly typed plan
        # module must not import the kernel layer); this pin keeps the
        # two from drifting.
        assert KERNELS == KERNEL_CHOICES

    def test_step_rows_match_brute_force(self):
        # Both automaton forms: the one-step rows M_c = (I + V) · R_c the
        # kernel builds lazily equal one brute-force Algorithm-3 step.
        for automaton in both_forms():
            kernel = runlength_kernel(automaton)
            states, _variable_row, _successor = lookups(automaton)
            for cls in range(automaton.classing.num_ids):
                for state in states:
                    assert dict(kernel.power_rows(cls, 0)[state]) == (
                        brute_step(automaton, {state: 1}, cls)
                    ), (type(automaton).__name__, cls, state)

    def test_iv_rows_are_identity_on_silent_states(self, runtime):
        kernel = runlength_kernel(runtime)
        for state in range(runtime.num_states):
            if runtime.silent[state]:
                assert kernel.iv_rows[state] == ((state, 1),)

    def test_kernel_is_cached_on_the_automaton(self):
        for automaton in both_forms():
            kernel = runlength_kernel(automaton)
            assert runlength_kernel(automaton) is kernel
            assert automaton._runlength is kernel

    def test_pickling_drops_the_kernel(self, runtime):
        runlength_kernel(runtime)
        assert runtime._runlength is not None
        clone = pickle.loads(pickle.dumps(runtime))
        assert clone._runlength is None
        assert count_runlength(clone, DOCUMENT) == count_runlength(
            runtime, DOCUMENT
        )

    def test_pickling_the_otf_runtime_drops_the_kernel(self):
        # The kernel's rows are built through lookups bound to the
        # automaton, and its segment memo can hold SEGMENT_MEMO_CAP rows:
        # neither may ride along into a worker process.
        spanner = Spanner(PATTERN, engine="compiled-otf")
        document = Document(("bbaaab" + "a" * 40 + "bb\n") * 120)
        expected = spanner.count(document, kernel="scalar")
        assert spanner.count(document, kernel="runlength") == expected
        runtime = spanner.otf_runtime(document)
        assert runtime._runlength is not None
        payload = pickle.dumps(runtime)
        assert b"RunLengthKernel" not in payload
        clone = pickle.loads(payload)
        assert clone._runlength is None
        assert runtime._runlength is not None
        assert count_runlength(clone, document.text) == expected


class TestRunAlgebra:
    def test_vec_run_matches_repeated_application(self):
        for automaton in both_forms():
            kernel = runlength_kernel(automaton)
            for cls in range(automaton.classing.num_ids):
                expected = {automaton.initial: 1}
                for k in range(0, 9):
                    actual = kernel.vec_run({automaton.initial: 1}, cls, k)
                    assert actual == expected, (
                        type(automaton).__name__, cls, k
                    )
                    expected = brute_step(automaton, expected, cls)

    def test_segment_rows_are_memoized(self, runtime):
        kernel = runlength_kernel(runtime)
        kernel._segment_rows.clear()
        buffer = bytes(runtime.encode("bbba").buffer)
        segment, delimiter = buffer[:3], buffer[3]
        first = kernel.segment_row(segment, delimiter, runtime.initial)
        assert kernel.segment_row(segment, delimiter, runtime.initial) == first
        assert len(kernel._segment_rows) == 1
        # The row is the segment's runs followed by one delimiter step.
        vector = kernel.vec_run({runtime.initial: 1}, segment[0], 3)
        assert dict(first) == kernel.vec_run(vector, delimiter, 1)

    def test_segment_memo_evicts_at_its_cap(self, monkeypatch):
        # A log with dozens of distinct line shapes through a memo capped
        # at four rows: the memo never grows past the cap, and evicted
        # rows are recomputed exactly.
        monkeypatch.setattr(runlength, "SEGMENT_MEMO_CAP", 4)
        text = server_log(
            80, seed=5, error_rate=0.05, levels=("INFO", "WARN")
        ).text
        spanner = Spanner(r".*ERROR worker-w{[0-9]} .*")
        for engine in ("compiled", "compiled-otf"):
            document = Document(text)
            automaton = (
                spanner.otf_runtime(document)
                if engine == "compiled-otf"
                else spanner.runtime(document)
            )
            assert automaton.encode(document).segment_delimiter() is not None
            expected = spanner.count(document, engine=engine, kernel="scalar")
            assert expected > 0
            for _ in range(2):
                assert count_runlength(automaton, document) == expected
                assert len(runlength_kernel(automaton)._segment_rows) == 4


class TestCounting:
    def test_count_matches_scalar(self, runtime):
        for document in ["", "a", "b", DOCUMENT, "a" * 200, "ab" * 50]:
            assert count_runlength(runtime, document) == count_compiled(
                runtime, document
            )

    def test_default_count_does_not_import_numpy(self):
        # Nothing in repro imports numpy: neither a default count nor a
        # forced run-length count on either automaton form loads it.
        script = (
            "import sys\n"
            "import repro\n"
            "assert 'numpy' not in sys.modules\n"
            "spanner = repro.Spanner('.*x{a+}.*')\n"
            "count = spanner.count('bbaab' * 400)\n"
            "assert count > 0, count\n"
            "for engine in ('compiled', 'compiled-otf'):\n"
            "    forced = spanner.count(\n"
            "        'bbaab' * 400, engine=engine, kernel='runlength'\n"
            "    )\n"
            "    assert forced == count, (engine, forced, count)\n"
            "print('numpy' in sys.modules)\n"
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
        assert result.stdout.strip() == "False"

    def test_large_exact_count_beyond_int64(self):
        # Three captures over 20k characters: about 2^70 mappings, far
        # past what int64 could hold; the run product stays exact.
        spanner = Spanner(".*x{a+}.*y{a+}.*z{a+}.*")
        document = ("a" * 4000 + "b") * 5
        expected = count_compiled(spanner.runtime(document), document)
        assert expected > 2**63
        for automaton in (
            spanner.runtime(document), spanner.otf_runtime(document)
        ):
            assert count_runlength(automaton, document) == expected

    def test_subset_count_matches_dense(self):
        spanner = Spanner(PATTERN)
        subset = spanner.otf_runtime(DOCUMENT)
        assert count_runlength(subset, DOCUMENT) == count_compiled(
            spanner.runtime(DOCUMENT), DOCUMENT
        )


class TestArena:
    def test_arena_bit_identical_to_scalar(self):
        # The kernel axis never reaches an arena: every value builds
        # exactly the scalar engine's arrays.
        spanner = Spanner(PATTERN)
        for document in ["", "a", DOCUMENT, "ab" * 30, "b" * 50 + "aaa"]:
            runtime = spanner.runtime(document)
            expected = arena_arrays(
                evaluate_compiled_arena(runtime, document)
            )
            for kernel in KERNELS:
                actual = arena_arrays(
                    spanner.preprocess(document, kernel=kernel)
                )
                assert actual == expected, (document, kernel)


class TestDispatch:
    def test_prefers_runlength_needs_long_runs_and_a_long_document(self):
        spanner = Spanner(PATTERN)
        runtime = spanner.runtime("ab")
        short = runtime.encode("ab" * 8)
        assert not prefers_runlength(short)
        choppy = runtime.encode("ab" * RUNLENGTH_MIN_CHARS)
        assert not prefers_runlength(choppy)
        runny = runtime.encode("a" * 64 * RUNLENGTH_MIN_CHARS)
        assert prefers_runlength(runny)
        assert resolve_kernel("auto", short) == "scalar"
        assert resolve_kernel("auto", runny) == "runlength"
        assert resolve_kernel("scalar", runny) == "scalar"
        assert resolve_kernel("runlength", short) == "runlength"
        with pytest.raises(EvaluationError):
            resolve_kernel("bogus", short)

    def test_auto_decision_never_builds_the_run_view(self):
        # A sparse log stays scalar under kernel="auto".  Extraction
        # resolves no kernel at all, so it reads not even the run count;
        # counting decides from the C-level run count, never the per-run
        # tuple.
        document = server_log(
            80, seed=5, error_rate=0.05, levels=("INFO", "WARN")
        )
        assert len(document) >= RUNLENGTH_MIN_CHARS
        spanner = Spanner(r".*ERROR worker-w{[0-9]} .*")
        rows = list(spanner.extract(document))
        classing = spanner.runtime(document).classing
        encoded = document.cached_encoding(classing.signature)
        assert encoded is not None
        assert encoded._run_count is None
        assert encoded._runs is None
        count = spanner.count(document)
        assert count == len(rows) > 0
        assert encoded._runs is None
        assert encoded._run_count is not None
        assert resolve_kernel("auto", encoded) == "scalar"
        assert encoded._runs is None

    def test_forced_runlength_extract_is_the_scalar_arena(self):
        # A long-run document that auto would send to the run-length
        # kernel: a forced kernel="runlength" still extracts through the
        # scalar arena (array-identical) and never builds the run view,
        # while its count keeps the run-length path and stays exact.
        text = ("b" * 700 + "a" * 900) * 4
        assert len(text) >= RUNLENGTH_MIN_CHARS
        pattern = ".*x{ba}.*"  # one mapping per run boundary
        forced = Spanner(pattern, kernel="runlength")
        scalar = Spanner(pattern, kernel="scalar")
        document = Document(text)
        runtime = forced.runtime(document)
        encoded = runtime.encode(document)
        assert prefers_runlength(encoded)
        expected = arena_arrays(evaluate_compiled_arena(runtime, document))
        assert arena_arrays(forced.preprocess(document)) == expected
        assert forced.extract(document) == scalar.extract(text)
        assert encoded._runs is None
        assert forced.count(document) == scalar.count(text) > 0

    def test_dispatchers_agree_across_kernels(self, runtime):
        expected = count_compiled(runtime, DOCUMENT)
        for kernel in KERNELS:
            assert (
                count_with_kernel(runtime, DOCUMENT, kernel=kernel) == expected
            )

    def test_subset_dispatcher_agrees(self):
        spanner = Spanner(PATTERN)
        subset = spanner.otf_runtime(DOCUMENT)
        expected = count_compiled(spanner.runtime(DOCUMENT), DOCUMENT)
        for kernel in KERNELS:
            assert (
                count_with_kernel(subset, DOCUMENT, kernel=kernel) == expected
            )
