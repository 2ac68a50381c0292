#!/usr/bin/env python
"""Measure the paper's claims, print them as one table, and gate them.

Each row names a claim, the paper section that makes it, the metric that
measures it, its bound, the measured value and a band: ``excellent``
(inside the tighter target), ``good`` (inside the bound), ``fail``
(outside it) or ``unresolved`` (printed, not gated).

* **B1** Algorithm 1 is linear in |d| (Section 3.2): ``alg1.linearity``
  (ns/char on the 16x documents over the 1x ones), per workload.
* **B2** constant delay (Section 3.2): ``alg2.flatness`` (p99 output
  delay at 16x over 1x), per workload.
* **one compile**, the integrity check for B1: ``compile.cache_misses``
  is 1 in every run, so per-request compilation hides in no number.
* **B3** constant delay beats polynomial delay, and the gap grows with
  |d|: ``PolynomialDelayEnumerator``'s per-output delay over
  ``Spanner.enumerate``'s, at 16x over 1x.
* **B4** Algorithm 3 counts in linear time (Theorem 5.1): the default
  ``Spanner.count`` ns/char at 16x over 1x.
* **B8** Algorithm 1 is linear in |A| (Section 3.2): the default
  preprocessing's ns/char growth from 1 to 8 keywords, over the growth
  of the deterministic eVA's state count.
* **Prop 4.2** the family needs at least 2^l extended transitions.
* **Section 4** determinizing on the fly beats determinizing up front,
  by more as the subset construction grows.
* **lazy lists** (Section 3.2): the gap between eager list copies and
  the lazy lists of Algorithm 1 grows with |d|.

B1, B2 and the one-compile row read ``perfbench/run.py --trace 1`` runs
this tool starts itself (seeds 7-11 per workload, ``--seconds 1.5``) and
take the median over the five runs: a single run's p99 ratio spreads
from about 0.6 to 2.5 on a correct tree.  A run that writes no readable
trace fails its workload's rows.  The other rows run in this process
and take the median of paired samples, the two sides of each pair timed
back to back, so slow drift of the host moves both.

Usage::

    python tools/check_paper_claims.py

Exits 0 when every gated row holds, 1 with one line per failing row on
stderr otherwise.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SEEDS = (7, 8, 9, 10, 11)
SECONDS = "1.5"
#: Pairs of samples behind each in-process row's median.
PAIRS = 9
KEYWORDS = ["timeout", "reset", "login", "logout", "miss", "full", "served", "retrying"]


class Claim(NamedTuple):
    """One row's claim and its bounds.

    With ``at_most`` the claim holds when the value is at most *bound*,
    otherwise when it is at least *bound*; *excellent* is the tighter
    target of the same direction.  A claim whose run-to-run spread on a
    correct tree crosses its bound is not *gated*.
    """

    label: str
    claim: str
    section: str
    metric: str
    bound: float
    excellent: float
    at_most: bool = True
    gated: bool = True

    def band(self, value: float | None) -> str:
        if not self.gated:
            return "unresolved"
        if value is None or not math.isfinite(value):
            return "fail"
        sign = 1 if self.at_most else -1
        if sign * value <= sign * self.excellent:
            return "excellent"
        return "good" if sign * value <= sign * self.bound else "fail"


class Row(NamedTuple):
    claim: Claim
    subject: str
    value: float | None
    note: str = ""

    @property
    def label(self) -> str:
        return f"{self.claim.label} {self.subject}".strip()

    @property
    def band(self) -> str:
        return self.claim.band(self.value)


# The bounds of B1/B2 are the ones perfbench's summary names; the others
# were set from ten consecutive runs of this tool on a correct tree (see
# CONTRIBUTING.md, "Paper claims").
B1 = Claim("B1", "Algorithm 1 is linear in |d|", "Sec. 3.2",
           "alg1.linearity, median of 5 runs", 1.5, 1.2)
B2 = Claim("B2", "constant delay", "Sec. 3.2",
           "alg2.flatness, median of 5 runs", 1.5, 1.2)
ONE_COMPILE = Claim("compile", "one compile per spanner (B1 integrity)", "-",
                    "runs with compile.cache_misses != 1", 0, 0)
B3 = Claim("B3", "constant delay beats polynomial delay, more as |d| grows", "Sec. 1, 3",
           "poly/const per-output delay, a^800 over a^50", 1.2, 2.0, at_most=False)
B4 = Claim("B4", "counting is linear in |d|", "Thm. 5.1",
           "Spanner.count ns/char, 16x over 1x", 1.5, 1.2)
B8 = Claim("B8", "Algorithm 1 is linear in |A|", "Sec. 3.2",
           "ns/char growth / state growth, 1 to 8 keywords", 1.5, 1.2)
PROP42 = Claim("Prop 4.2", "the family needs >= 2^l eVA transitions", "Prop. 4.2",
               "min over l=1..8 of transitions from c0 / 2^l", 1.0, 1.0, at_most=False)
ON_THE_FLY = Claim("Sec. 4", "on-the-fly beats up-front determinization", "Sec. 4",
                   "up-front/on-the-fly time, k=10 over k=4", 2.0, 3.0, at_most=False)
LAZY_LISTS = Claim("lazy lists", "lazy lists keep Algorithm 1 linear", "Sec. 3.2",
                   "eager/lazy preprocessing, a^200 over a^50", 3.0, 6.0, at_most=False)

#: ``(label, workload)`` rows whose 10-run spread on a correct tree
#: crosses the bound: contacts-dense's median flatness read 1.05-1.80.
#: Its p99 rises from 1x to 4x to 16x inside every run while p50 stays
#: flat, and an in-process probe that builds every bucket's arenas first
#: and interleaves the buckets reads about 1.1, so the rise follows the
#: order in which the perfbench probe builds and walks its arenas.
UNRESOLVED = {("B2", "contacts-dense")}


def workloads(root: Path = ROOT) -> list[str]:
    """The workload names ``BENCHMARK.json`` declares."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return [workload["name"] for workload in json.load(handle)["workloads"]]


def traced_run(name: str, seed: int) -> dict | None:
    """The metrics of a fresh traced perfbench run, or ``None``."""
    path = OUT_DIR / f"{name}-seed{seed}-trace1.json"
    path.unlink(missing_ok=True)  # never read an earlier run's file
    try:
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", "1"],
            capture_output=True, cwd=str(ROOT), timeout=300,
        )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["metrics"]
    except (subprocess.TimeoutExpired, OSError, ValueError, KeyError):
        return None


def traced_runs(names: list[str]) -> dict[str, list[dict | None]]:
    """One traced run per seed and workload, the workloads interleaved."""
    runs: dict[str, list[dict | None]] = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            runs[name].append(traced_run(name, seed))
    return runs


def traced_rows(runs: dict[str, list[dict | None]]) -> list[Row]:
    """B1, B2 and the one-compile row of each workload, from its runs."""
    rows = []
    for name, metrics in runs.items():
        readable = [
            run for run in metrics
            if run is not None and all(
                isinstance(run.get(key), (int, float))
                for key in ("alg1.linearity", "alg2.flatness", "compile.cache_misses")
            )
        ]
        missing = len(metrics) - len(readable)
        note = f"{missing} of {len(metrics)} traces missing" if missing else ""
        for claim, key in ((B1, "alg1.linearity"), (B2, "alg2.flatness")):
            if (claim.label, name) in UNRESOLVED:
                claim = claim._replace(gated=False)
            values = [run[key] for run in readable]
            value = None if missing else median(values)
            rows.append(Row(claim, name, value, note or spread(values)))
        recompiled = sum(run["compile.cache_misses"] != 1 for run in readable)
        rows.append(Row(ONE_COMPILE, name, None if missing else recompiled, note))
    return rows


def spread(values: list[float]) -> str:
    return f"runs {min(values):.2f}-{max(values):.2f}" if values else ""


def seconds(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def paired_median(sample) -> float:
    """The median of :data:`PAIRS` calls of *sample*, each timing one pair."""
    return median(sample() for _ in range(PAIRS))


def per_output_seconds(mappings, outputs: int = 1000) -> float:
    """Mean delay over the *outputs* mappings after the first."""
    iterator = iter(mappings)
    next(iterator)
    start = time.perf_counter()
    produced = 0
    for _mapping in iterator:
        produced += 1
        if produced == outputs:
            break
    return (time.perf_counter() - start) / produced


def polynomial_delay_growth() -> float:
    from repro import Spanner
    from repro.baselines.polydelay import PolynomialDelayEnumerator
    from repro.workloads.spanners import nested_capture_regex

    spanner = Spanner(nested_capture_regex(1))
    polynomial = PolynomialDelayEnumerator(spanner.compiled())
    spanner.count("a")

    def quotient(length: int) -> float:
        text = "a" * length
        return (per_output_seconds(polynomial.enumerate(text))
                / per_output_seconds(spanner.enumerate(text)))

    return paired_median(lambda: quotient(800) / quotient(50))


def count_linearity() -> float:
    from repro import Spanner
    from repro.workloads.documents import contact_document
    from repro.workloads.spanners import contact_pattern

    spanner = Spanner(contact_pattern())
    small = contact_document(50, seed=7).text
    large = contact_document(800, seed=7).text
    spanner.count(large)
    calls = round(len(large) / len(small))

    def ns_per_char(text: str, repeat: int) -> float:
        return seconds(lambda: [spanner.count(text) for _ in range(repeat)]) / (
            repeat * len(text)
        )

    return paired_median(lambda: ns_per_char(large, 1) / ns_per_char(small, calls))


def automaton_linearity() -> float:
    from repro import Spanner
    from repro.workloads.documents import server_log

    text = server_log(600, seed=21).text
    one, eight = (
        Spanner(rf".*({'|'.join(KEYWORDS[:n])}) (w{{[a-z]+}}).*") for n in (1, 8)
    )
    for spanner in (one, eight):
        spanner.preprocess(text)
    growth = paired_median(
        lambda: seconds(lambda: eight.preprocess(text)) / seconds(lambda: one.preprocess(text))
    )
    return growth / (eight.compiled().num_states / one.compiled().num_states)


def proposition42_margin() -> float:
    from repro.automata.transforms import va_to_eva
    from repro.workloads.spanners import proposition42_va

    return min(
        sum(1 for _ in va_to_eva(proposition42_va(pairs)).variable_transitions_from("c0"))
        / 2**pairs
        for pairs in range(1, 9)
    )


def on_the_fly_growth() -> float:
    from repro import Spanner
    from repro.runtime.engine import count_compiled
    from repro.runtime.subset import CompiledSubsetEVA

    rng = random.Random(7)
    text = "".join(rng.choice("ab") for _ in range(2000))

    def ratio(dots: int) -> float:
        # Both sides start cold from the pattern and count with the same
        # engine; the up-front side determinizes before it counts.
        pattern = ".*a" + "." * dots + "x{b}.*"
        up_front = seconds(
            lambda: count_compiled(CompiledSubsetEVA(Spanner(pattern).compiled()), text)
        )
        return up_front / seconds(lambda: Spanner(pattern).count(text))

    return paired_median(lambda: ratio(10) / ratio(4))


def lazy_list_growth() -> float:
    from repro import Spanner
    from repro.baselines.eager import EagerCopyEvaluator
    from repro.enumeration.evaluate import evaluate
    from repro.workloads.spanners import nested_capture_regex

    automaton = Spanner(nested_capture_regex(1)).compiled()
    eager = EagerCopyEvaluator(automaton)

    def gap(length: int) -> float:
        text = "a" * length
        return seconds(lambda: eager.partial_outputs(text)) / seconds(
            lambda: evaluate(automaton, text, check_determinism=False)
        )

    return paired_median(lambda: gap(200) / gap(50))


MEASURED = (
    (B3, polynomial_delay_growth),
    (B4, count_linearity),
    (B8, automaton_linearity),
    (PROP42, proposition42_margin),
    (ON_THE_FLY, on_the_fly_growth),
    (LAZY_LISTS, lazy_list_growth),
)


def measured_rows() -> list[Row]:
    """The rows measured in this process."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return [Row(claim, "", measure()) for claim, measure in MEASURED]


def table(rows: list[Row]) -> str:
    """The rows as a Markdown table."""
    lines = [
        "| row | claim | paper | metric | bound | value | band | note |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        claim = row.claim
        cells = [
            row.label,
            claim.claim,
            claim.section,
            claim.metric,
            f"{'<=' if claim.at_most else '>='} {claim.bound:g}",
            "-" if row.value is None else f"{row.value:.3g}",
            row.band,
            row.note,
        ]
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |")
    return "\n".join(lines)


def violations(rows: list[Row]) -> list[str]:
    """One line per gated row outside its bound."""
    return [
        f"{row.label}: {row.claim.metric} = {row.value} "
        f"(bound {row.claim.bound:g}){' ' + row.note if row.note else ''}"
        for row in rows
        if row.band == "fail"
    ]


def main() -> int:
    started = time.perf_counter()
    rows = traced_rows(traced_runs(workloads())) + measured_rows()
    print(table(rows))
    print(f"\n{len(rows)} rows in {time.perf_counter() - started:.0f} s")
    found = violations(rows)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
