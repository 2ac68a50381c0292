"""Unit tests for the ``kernel=`` names (:mod:`repro.runtime.runlength`).

Every name runs the one count loop, whose run powers
(:func:`repro.runtime.kernel.count_loop`) replace the run-length kernel:
counts and arenas are the same under each, on both automaton forms.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.spanners.spanner import Spanner

from harness import assert_arena_identical

PATTERN = ".*x{a+}.*"
DOCUMENT = "bbaaab" + "a" * 40 + "bb"
KERNEL_NAMES = ("auto", "scalar", "runlength")


class TestCounting:
    def test_count_matches_scalar(self):
        # The default count (run powers) equals stepping every character.
        spanner = Spanner(PATTERN)
        runtime = spanner.runtime(DOCUMENT)
        for document in ["", "a", "b", DOCUMENT, "a" * 200, "ab" * 50]:
            expected = count_compiled(runtime, document, fast_path=False)
            for kernel in KERNEL_NAMES:
                assert spanner.count(document, kernel=kernel) == expected

    def test_default_count_does_not_import_numpy(self):
        # Nothing in repro imports numpy: neither the default count nor
        # a forced kernel name loads it.
        script = (
            "import sys\n"
            "import repro\n"
            "assert 'numpy' not in sys.modules\n"
            "spanner = repro.Spanner('.*x{a+}.*')\n"
            "count = spanner.count('bbaab' * 400)\n"
            "assert count > 0, count\n"
            "forced = spanner.count('bbaab' * 400, engine='compiled', kernel='runlength')\n"
            "assert forced == count, (forced, count)\n"
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

    def test_subset_count_matches_dense(self):
        spanner = Spanner(PATTERN)
        expected = count_compiled(spanner.runtime(DOCUMENT), DOCUMENT)
        for kernel in KERNEL_NAMES:
            assert spanner.count(DOCUMENT, engine="compiled", kernel=kernel) == expected


class TestArena:
    def test_arena_bit_identical_to_scalar(self):
        # No kernel name reaches an arena.
        spanner = Spanner(PATTERN)
        for document in ["", "a", DOCUMENT, "ab" * 30, "b" * 50 + "aaa"]:
            expected = evaluate_compiled_arena(spanner.runtime(document), document)
            for kernel in KERNEL_NAMES:
                assert_arena_identical(
                    spanner.preprocess(document, kernel=kernel),
                    expected,
                    context=f" (kernel={kernel!r})",
                )
