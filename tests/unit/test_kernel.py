"""Unit tests for the Algorithm-1 loops (:mod:`repro.runtime.kernel`).

Two concerns live here:

* the module's shape — every loop it exports has a production caller,
  and the planner-facing kernel axis is defined once;
* the set table's bound: clearing it mid-document changes nothing; and
* degenerate documents (empty, single character) driven through
  :func:`harness.assert_all_engines_agree`, which routes every engine ×
  kernel × chunking combination through these loops — exactly the
  inputs where a loop's entry and final capture edges are most likely
  to drift between the whole-document and chunk-fed routes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Spanner
from repro.runtime import kernel, runlength
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import KERNELS, set_table
from repro.runtime.plan import KERNEL_CHOICES

from harness import assert_all_engines_agree, assert_arena_identical

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
        # plan.KERNEL_CHOICES and runlength.KERNELS are the same object
        # as kernel.KERNELS — the axis can no longer drift.
        assert KERNEL_CHOICES is KERNELS
        assert runlength.KERNELS is KERNELS
        assert KERNELS == ("auto", "scalar", "runlength")


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
        for form in ("runtime", "otf_runtime"):
            runtime = getattr(Spanner(self.PATTERN), form)(text)
            arena = evaluate_compiled_arena(runtime, text)
            assert len(set_table(runtime).records) <= 8
            assert {str(m) for m in arena} == {str(m) for m in expected}
            assert count_compiled(runtime, text) == expected.count()
            if form == "runtime":
                assert_arena_identical(arena, whole)
