#!/usr/bin/env python
"""Lint: ``import repro`` and a default request load no cold-path module.

A default ``count``, ``enumerate`` or ``extract`` compiles a regex and
runs Algorithms 1–3; nothing else.  The process pool, the streaming
evaluator, the hybrid operators, the optimizer, the reference engines
and the futures a plan-cache build hands its waiters are cold paths:
each is imported at its call site (or through a lazy package export),
so a fresh process does not pay to load them.  History shows eager
imports creep back one convenient top-level line at a time, and every
one of them is start-up latency for every user.  This check fails CI
the moment one does.

It starts a fresh interpreter with ``src`` on ``PYTHONPATH``, runs
``import repro`` plus a default ``count``, ``enumerate`` and ``extract``
(the default engine, ``"compiled"`` and ``"compiled-otf"``), and flags
every module of :data:`COLD` found in ``sys.modules``.  A second fresh
interpreter checks that ``import repro.cli`` loads none of
:data:`CLI_COLD`: one-shot ``repro count``/``extract`` never start a pool.

Usage::

    python tools/check_cold_imports.py [root]

Exits 0 when clean, 1 with a per-module report otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

#: Modules a default request must not load.
COLD = (
    "multiprocessing",
    "concurrent.futures",
    "repro.runtime.resilience",
    "repro.runtime.batch",
    "repro.runtime.streaming",
    "repro.runtime.operators",
    "repro.algebra.optimizer",
    "repro.algebra.logical",
    "repro.counting.census",
    "repro.enumeration.evaluate",
)

#: Modules ``import repro.cli`` must not load.
CLI_COLD = ("multiprocessing",)

_REQUESTS = '''\
import sys
import repro
from repro import Spanner

text = "Mail Ada at a@b.be or Bob at b@c.de"
for options in ({}, {"engine": "compiled"}, {"engine": "compiled-otf"}):
    spanner = Spanner(".*name{[A-Z][a-z]+} .*", **options)
    spanner.count(text)
    list(spanner.enumerate(text))
    spanner.extract(text)
print("\\n".join(sys.modules))
'''

_CLI = 'import sys\nimport repro.cli\nprint("\\n".join(sys.modules))\n'

PROBES = (
    ("import repro + default requests", _REQUESTS, COLD),
    ("import repro.cli", _CLI, CLI_COLD),
)


def loaded_modules(root: Path, code: str) -> set[str]:
    """``sys.modules`` after running *code* in a fresh interpreter over *root*."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    process = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(root),
        timeout=120,
    )
    if process.returncode != 0:
        raise RuntimeError(f"probe failed: {process.stderr.strip()[-400:]}")
    return set(process.stdout.split())


def violations(root: Path) -> list[str]:
    flagged = []
    for label, code, cold in PROBES:
        loaded = loaded_modules(root, code)
        flagged.extend(f"{label}: {module}" for module in cold if module in loaded)
    return flagged


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    flagged = violations(root)
    if flagged:
        print(
            "cold-path module loaded by a default start-up (import it at its "
            "call site or export it lazily instead):"
        )
        for entry in flagged:
            print(f"  {entry}")
        return 1
    print("cold-import check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
