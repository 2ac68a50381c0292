"""Unit tests for the parameterized kernel spec (:mod:`repro.runtime.kernel`).

Two concerns live here:

* the spec machinery itself — axis validation, normalization, the build
  cache, source introspection and the single-definition kernel axis; and
* degenerate documents (empty, single character) driven through
  :func:`harness.assert_all_engines_agree`, which since the refactor
  routes every engine × kernel × chunking combination through generated
  kernels — exactly the inputs where an extracted loop's entry and final
  capture edges are most likely to drift from the originals.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.core.errors import EvaluationError
from repro.runtime import runlength
from repro.runtime.kernel import (
    CAPTURE_MODES,
    KERNELS,
    SUPPORTED_SPECS,
    KernelSpec,
    build_final_capture,
    build_kernel,
    kernel_source,
)
from repro.runtime.plan import KERNEL_CHOICES

from harness import assert_all_engines_agree

PATTERNS = [
    "x{a*b}",
    ".*x{a+b}.*",
    ".*x{a}.*y{b}.*",
]


class TestKernelSpec:
    def test_defaults_describe_the_arena_engine(self):
        spec = KernelSpec()
        assert (spec.capture, spec.tables, spec.chunking) == (
            "arena",
            "dense",
            "whole",
        )
        spec.validate()

    def test_spec_has_exactly_the_loop_defining_axes(self):
        # Emission and the run-length choice never change a loop, so
        # neither is a spec axis.
        assert [field.name for field in fields(KernelSpec)] == [
            "capture",
            "tables",
            "chunking",
        ]
        assert CAPTURE_MODES == ("arena", "count")

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("capture", "holographic"),
            ("capture", "lazylist"),
            ("tables", "sparse"),
            ("chunking", "mmap"),
        ],
    )
    def test_unknown_axis_value_raises(self, axis, value):
        with pytest.raises(EvaluationError, match=f"unknown kernel-spec {axis}"):
            KernelSpec(**{axis: value}).validate()

    def test_unsupported_combination_raises(self):
        # Each axis value is legal, but no engine ships this point.
        with pytest.raises(EvaluationError, match="unsupported kernel-spec"):
            KernelSpec(capture="count", chunking="resumable").validate()

    def test_supported_specs_are_distinct_and_buildable(self):
        assert len(set(SUPPORTED_SPECS)) == len(SUPPORTED_SPECS) == 5
        for spec in SUPPORTED_SPECS:
            kernel = build_kernel(spec)
            assert callable(kernel)

    def test_every_supported_spec_has_a_production_caller(self):
        # Importing repro binds every engine's kernels; a spec point that
        # no engine builds is dead weight and must leave SUPPORTED_SPECS.
        # A fresh interpreter, so no test has built a kernel beforehand.
        script = (
            "import repro\n"
            "from repro.runtime.kernel import _KERNEL_CACHE, SUPPORTED_SPECS\n"
            "assert set(_KERNEL_CACHE) == set(SUPPORTED_SPECS), (\n"
            "    set(SUPPORTED_SPECS) - set(_KERNEL_CACHE)\n"
            ")\n"
            "print(len(SUPPORTED_SPECS))\n"
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
        assert result.stdout.strip() == "5"

    def test_build_cache_returns_one_kernel_per_spec(self):
        base = KernelSpec(capture="arena")
        assert build_kernel(base) is build_kernel(KernelSpec())
        # Distinct loop-defining axes get distinct kernels.
        assert build_kernel(KernelSpec(capture="count")) is not build_kernel(base)
        resumable = KernelSpec(capture="arena", chunking="resumable")
        assert build_kernel(resumable) is not build_kernel(base)

    def test_kernel_source_is_inspectable(self):
        for spec in SUPPORTED_SPECS:
            source = kernel_source(spec)
            assert "def " in source
            assert "while pos < n" in source
            assert build_kernel(spec).__kernel_source__ == source

    def test_capture_modes_generate_distinct_sources(self):
        sources = {
            capture: kernel_source(KernelSpec(capture=capture))
            for capture in CAPTURE_MODES
        }
        assert len(set(sources.values())) == len(CAPTURE_MODES)

    def test_final_capture_builder_is_cached(self):
        assert build_final_capture() is build_final_capture()

    def test_kernel_axis_is_defined_once(self):
        # plan.KERNEL_CHOICES and runlength.KERNELS are the same object
        # as kernel.KERNELS — the axis can no longer drift.
        assert KERNEL_CHOICES is KERNELS
        assert runlength.KERNELS is KERNELS
        assert KERNELS == ("auto", "scalar", "runlength")


class TestDegenerateDocuments:
    """Empty and single-character documents across every generated route."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_empty_document(self, pattern):
        assert_all_engines_agree(pattern, "")

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("char", ["a", "b", "z", "é"])
    def test_single_character(self, pattern, char):
        assert_all_engines_agree(pattern, char)
