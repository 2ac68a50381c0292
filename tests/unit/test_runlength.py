"""Unit tests for the run-length kernels (repro.runtime.runlength)."""

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
    count_subset_runlength,
    count_subset_with_kernel,
    count_with_kernel,
    numpy_available,
    prefers_runlength,
    resolve_kernel,
    runlength_kernel,
    subset_runlength_kernel,
    _mul_rows,
    _vec_rows,
)
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.spanners.spanner import Spanner
from repro.workloads.documents import server_log


PATTERN = ".*x{a+}.*"
DOCUMENT = "bbaaab" + "a" * 40 + "bb"


@pytest.fixture
def runtime():
    return Spanner(PATTERN).runtime(DOCUMENT)


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

    def test_step_rows_match_brute_force(self, runtime):
        kernel = runlength_kernel(runtime)
        for cls in range(kernel.num_classes):
            for state in range(kernel.num_states):
                merged = {}
                for source, coeff in kernel.iv_rows[state]:
                    target = runtime.class_table[source][cls]
                    if target >= 0:
                        merged[target] = merged.get(target, 0) + coeff
                assert kernel.step_rows[cls][state] == tuple(
                    sorted(merged.items())
                )

    def test_iv_rows_are_identity_on_silent_states(self, runtime):
        kernel = runlength_kernel(runtime)
        for state in range(kernel.num_states):
            if runtime.silent[state]:
                assert kernel.iv_rows[state] == ((state, 1),)

    def test_count_kind_shortcuts_are_sound(self, runtime):
        kernel = runlength_kernel(runtime)
        for cls in range(kernel.num_classes):
            rows = kernel.step_rows[cls]
            kind = kernel.count_kind[cls]
            functional = all(
                len(row) <= 1 and all(c == 1 for _t, c in row) for row in rows
            )
            if kind == "functional":
                assert functional
            elif kind == "idempotent":
                assert _mul_rows(rows, rows) == rows
            else:
                assert kind == "general"
                assert not functional
                assert _mul_rows(rows, rows) != rows

    def test_capture_pattern_has_a_general_class(self, runtime):
        # The `a` class both opens and extends x{a+}: its count matrix
        # genuinely fans out, so exponentiation cannot be shortcut.
        kernel = runlength_kernel(runtime)
        assert "general" in kernel.count_kind

    def test_kernel_is_cached_on_the_automaton(self, runtime):
        assert runlength_kernel(runtime) is runlength_kernel(runtime)

    def test_pickling_drops_the_kernel(self, runtime):
        runlength_kernel(runtime)
        assert runtime._runlength is not None
        clone = pickle.loads(pickle.dumps(runtime))
        assert clone._runlength is None
        assert count_runlength(clone, DOCUMENT) == count_runlength(
            runtime, DOCUMENT
        )


class TestRunAlgebra:
    def test_vec_run_matches_repeated_application(self, runtime):
        kernel = runlength_kernel(runtime)
        for cls in range(kernel.num_classes):
            vector = {runtime.initial: 1}
            for k in range(0, 9):
                expected = {runtime.initial: 1}
                for _ in range(k):
                    expected = _vec_rows(expected, kernel.step_rows[cls])
                assert (
                    kernel.vec_run(vector, cls, k, use_numpy=False) == expected
                )

    def test_segment_rows_are_memoized(self, runtime):
        kernel = runlength_kernel(runtime)
        kernel._segment_rows.clear()
        encoded = runtime.encode("bbb")
        segment = bytes(encoded.buffer)
        first = kernel.segment_row(segment, runtime.initial)
        assert kernel.segment_row(segment, runtime.initial) == first
        assert len(kernel._segment_rows) == 1


class TestCounting:
    def test_count_matches_scalar(self, runtime):
        for document in ["", "a", "b", DOCUMENT, "a" * 200, "ab" * 50]:
            assert count_runlength(runtime, document) == count_compiled(
                runtime, document
            )

    def test_numpy_and_fallback_agree(self, runtime):
        for document in [DOCUMENT, "a" * 500]:
            plain = count_runlength(runtime, document, use_numpy=False)
            auto = count_runlength(runtime, document)
            assert plain == auto
            if numpy_available():
                assert (
                    count_runlength(runtime, document, use_numpy=True) == plain
                )

    @pytest.mark.skipif(numpy_available(), reason="numpy is importable")
    def test_forcing_numpy_without_numpy_raises(self, runtime):
        with pytest.raises(EvaluationError):
            count_runlength(runtime, DOCUMENT, use_numpy=True)

    def test_failed_numpy_import_falls_back_to_python_rows(
        self, runtime, monkeypatch
    ):
        # A None entry in sys.modules makes `import numpy` raise
        # ImportError, as on a host without numpy.
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(runlength, "_numpy", runlength._NOT_LOADED)
        document = "a" * 500  # one general run far above _NUMPY_MIN_RUN
        assert count_runlength(runtime, document) == count_compiled(
            runtime, document
        )
        assert runlength._numpy is None
        assert not numpy_available()
        with pytest.raises(EvaluationError):
            count_runlength(runtime, document, use_numpy=True)

    def test_default_count_does_not_import_numpy(self):
        # numpy is only for long general runs of the run-length count; a
        # default count on a short-run document must never load it.
        script = (
            "import sys\n"
            "import repro\n"
            "assert 'numpy' not in sys.modules\n"
            "count = repro.Spanner('.*x{a+}.*').count('bbaab' * 400)\n"
            "assert count > 0, count\n"
            "repro.runtime.runlength.numpy_available()\n"
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
        # ~2^line_count mappings: far past what int64 could hold, so the
        # magnitude guard must route the product to exact Python rows.
        spanner = Spanner(".*x{a+}.*")
        document = ("a" * 80 + "b") * 40
        runtime = spanner.runtime(document)
        assert count_runlength(runtime, document) == count_compiled(
            runtime, document
        )

    def test_subset_count_matches_dense(self):
        spanner = Spanner(PATTERN)
        subset = spanner.otf_runtime(DOCUMENT)
        assert count_subset_runlength(subset, DOCUMENT) == count_compiled(
            spanner.runtime(DOCUMENT), DOCUMENT
        )
        assert subset_runlength_kernel(subset) is subset_runlength_kernel(
            subset
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
                count_subset_with_kernel(subset, DOCUMENT, kernel=kernel)
                == expected
            )
