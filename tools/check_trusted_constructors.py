#!/usr/bin/env python
"""Lint: the trusted ``Span``/``Mapping`` constructors stay in the arena walk.

The public constructors ``Span(begin, end)`` and ``Mapping(assignment)``
validate their arguments.  The arena walk of Algorithm 2
(``CompiledResultDag.mappings`` in :mod:`repro.runtime.dag`) skips those
checks: it yields undecoded mappings built with ``Mapping.__new__`` plus
slot stores, holding the walk's path.  A mapping decodes that path only
when it is read, in :mod:`repro.core.mappings`: ``contents`` slices the
text and builds no span, and every other reader builds its spans once
with ``Span.__new__`` plus slot stores.  Both skip the checks because the
arena already guarantees integer endpoints with ``0 ≤ begin ≤ end ≤ |d|``
and string keys.  No other module has that guarantee, so this check
fails CI the moment the trusted form appears anywhere else under
``src/repro/``.

A file is flagged when its text contains ``Span.__new__`` or
``Mapping.__new__``.  The ``core/`` package (which defines both classes
and documents the form) and ``runtime/dag.py`` are exempt.

Usage::

    python tools/check_trusted_constructors.py [root]

Exits 0 when clean, 1 with a per-file report otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

EXEMPT_DIRECTORY = "src/repro/core/"
EXEMPT_FILES = ("src/repro/runtime/dag.py",)

SIGNATURES = ("Span.__new__", "Mapping.__new__")


def violations(root: Path) -> list[str]:
    flagged = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith(EXEMPT_DIRECTORY) or relative in EXEMPT_FILES:
            continue
        text = path.read_text(encoding="utf-8")
        if any(signature in text for signature in SIGNATURES):
            flagged.append(relative)
    return flagged


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    flagged = violations(root)
    if flagged:
        print(
            "trusted Span/Mapping construction found outside repro/core and "
            "repro/runtime/dag.py (use the validating Span(...)/Mapping(...)):"
        )
        for relative in flagged:
            print(f"  {relative}")
        return 1
    print("trusted-constructor check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
