#!/usr/bin/env python
"""Lint: the Algorithm-1 position loop must live only in the kernel module.

Every engine runs the capturing/reading alternation through the plain
loop functions of :mod:`repro.runtime.kernel`.  History shows
the loops re-grow: an engine gains a "temporary" specialized copy of the
capturing/reading alternation, the copies drift, and the bit-identity
contract between engines quietly breaks.  This check fails CI the moment
a raw position loop reappears outside the kernel module.

Heuristic: a file under ``src/repro/`` (other than ``runtime/kernel.py``)
is flagged when it contains all three signatures of a hand-written
Algorithm-1 loop, in either of the shapes the kernel's loops take —
stepping interned active sets by their plans, or stepping states
through state-indexed arrays:

* a position loop: its header (``while pos < n``) or its read of the
  class-id buffer (``buf[pos]``),
* a capturing phase: a position plan (``.plans[`` or ``.plan(``), a
  capture plan (``.capture_plan(`` or ``record.capture``), a
  variable-table read (``variable_table[``) or a ``capturing(`` call, and
* a reading step: a position plan (``.plans[`` or ``.plan(``), a step
  plan (``.steps[`` or ``.step_plan(``) or a dense-table read
  (``class_table`` or ``letter_successor``).

A position plan does both phases in one lookup, so it counts as both.

Any one of them alone is fine (helpers sprint, planners mention tables);
together they only ever occur in an inlined inner loop.  The kernel
module, which holds every such loop, is exempt.

Usage::

    python tools/check_single_kernel.py [root]

Exits 0 when clean, 1 with a per-file report otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

EXEMPT = ("runtime/kernel.py",)

LOOP_SIGNATURES = ("while pos < n", "buf[pos]")
PLAN_SIGNATURES = (".plans[", ".plan(")
CAPTURE_SIGNATURES = (
    "capturing(", "variable_table[", ".capture_plan(", "record.capture", *PLAN_SIGNATURES
)
STEP_SIGNATURES = ("class_table", "letter_successor", ".steps[", ".step_plan(", *PLAN_SIGNATURES)


def violations(root: Path) -> list[str]:
    flagged = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.endswith(EXEMPT):
            continue
        text = path.read_text(encoding="utf-8")
        if (
            any(signature in text for signature in LOOP_SIGNATURES)
            and any(signature in text for signature in CAPTURE_SIGNATURES)
            and any(signature in text for signature in STEP_SIGNATURES)
        ):
            flagged.append(relative)
    return flagged


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    flagged = violations(root)
    if flagged:
        print(
            "Algorithm-1 position loop found outside repro/runtime/kernel.py "
            "(engines must call a loop from that module instead of inlining one):"
        )
        for relative in flagged:
            print(f"  {relative}")
        return 1
    print("single-kernel check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
