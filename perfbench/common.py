"""Shared pieces of the benchmark: statistics, spans, fresh interpreters.

Nothing here imports :mod:`repro`; ``run.py`` puts the checkout's ``src``
directory on ``sys.path`` before the workload modules import it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans, metadata and scratch inputs of every run land here (git-ignored).
OUT_DIR = ROOT / ".perfbench_out"


def percentile(values, point: float) -> float:
    """Linear-interpolated percentile (``point`` in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * point / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


#: CPUs this process may run on; passes rotate over them (see rotate_cpus).
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def rotate_cpus(step: int) -> None:
    """Pin this process to one CPU, chosen by *step*.

    Replayed passes call this with their pass number, so a neighbour that
    contends one core for a whole run slows only some passes, and the
    best-of over passes still sees an uncontended one.  :func:`unpin`
    undoes it.
    """
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, {CPUS[step % len(CPUS)]})


def unpin() -> None:
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, CPUS)


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_interpreter_seconds(code: str, *args: str) -> float:
    """Wall time from spawning ``python -c code`` to its first output line.

    The child prints one line when it is ready; everything after that
    (interpreter teardown) is not counted.  The child is always waited for.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=str(ROOT),
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        _out, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or not line.strip():
        raise RuntimeError(f"fresh interpreter failed: {err.strip()[-400:]}")
    return elapsed


_IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import {module}\n"
    "print(time.perf_counter() - start, flush=True)\n"
)


def import_seconds(module: str, repeats: int = 3) -> float:
    """Median in-child time of ``import module`` in fresh interpreters."""
    samples = []
    for _ in range(repeats):
        process = subprocess.run(
            [sys.executable, "-c", _IMPORT_CODE.format(module=module)],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
            timeout=60,
            check=True,
        )
        samples.append(float(process.stdout.split()[0]))
    return median(samples)


def calibration_ns_per_iteration(repeats: int = 5, iterations: int = 200_000) -> float:
    """A fixed pure-Python loop, so runs on different runners can be compared."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        total = 0
        for index in range(iterations):
            total += index * index
        samples.append((time.perf_counter_ns() - start) / iterations)
    return median(samples)


def run_metadata(seed: int) -> dict:
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy is optional for the library
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "seed": seed,
        "calibration_ns_per_iteration": calibration_ns_per_iteration(),
    }


class Tracer:
    """In-memory spans: name, start, end, parent span index, request id.

    Spans are appended as they open; ``run.py`` writes them once, at the
    end of the run, so tracing does no I/O while measuring.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []

    def add(self, name: str, start: float, end: float, parent: int | None, request: int) -> int:
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def open(self, name: str, parent: int | None, request: int) -> int:
        """Start a span now; :meth:`close` stamps its end."""
        return self.add(name, time.perf_counter(), 0.0, parent, request)

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover.

        Children of one span never overlap here (every span is recorded
        around a sequential call), so the covered time is their sum.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _p, _r in self.spans if span_name == name]


def write_output(name: str, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
