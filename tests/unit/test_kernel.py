"""Unit tests for the Algorithm-1 loops (:mod:`repro.runtime.kernel`).

Two concerns live here:

* the module's shape — every loop it exports has a production caller,
  and the planner-facing kernel axis is defined once; and
* degenerate documents (empty, single character) driven through
  :func:`harness.assert_all_engines_agree`, which routes every engine ×
  kernel × chunking combination through these loops — exactly the
  inputs where a loop's entry and final capture edges are most likely
  to drift between the whole-document and chunk-fed routes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime import runlength
from repro.runtime.kernel import KERNELS
from repro.runtime.plan import KERNEL_CHOICES

from harness import assert_all_engines_agree

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
                "final_capture",
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
