"""The reusable cross-engine differential-testing harness.

One call — :func:`assert_all_engines_agree` — pins every evaluation route
of the library against each other on one ``(spanner, document)`` pair:

* the facade engines (``reference``, ``compiled``) plus
  the ``auto`` plan, for both enumeration and counting;
* the chunk-fed :class:`~repro.runtime.streaming.StreamingEvaluator`, in
  **both** emit modes, over a seeded adversarial set of chunkings of the
  same document: whole-document, one-character chunks, empty chunks
  interspersed, random seeded splits, and UTF-8 byte streams split
  *inside* multi-byte sequences;
* the count loop's run powers: the document with every character
  stretched into a run of ``2 * POWER_MIN`` is counted with the fast
  path, without it and by the reference engine, on both
  :data:`AUTOMATON_FORMS`; and the arena with the fast path off must be
  **bit-identical** (arrays, not just mapping sets) to the arena with it
  on.

The streaming evaluator runs the same single compilation as the
whole-document engines, opened with no declared alphabet and with one
disjoint from the document (``alphabet="q"``): the declaration must not
matter, and characters the pattern never names (the adversarial corpus
plants them at chunk boundaries) read as ``OTHER``, in every emit mode.

:func:`adversarial_documents` is the seeded document corpus used by the
deterministic streaming tests: multi-byte runs around chunk boundaries,
characters outside the pattern alphabet, empty documents, single
characters, and uniform runs long enough for the count loop's powers.

Every route above runs one of the plain loops of
:mod:`repro.runtime.kernel`, so one harness call doubles as the
equivalence gate over all of them: the arena loop against the count
loop, the sequential eVA's subsets against the determinized eVA's
singletons, and one
``arena_loop`` call over the whole document against one call per chunk,
arena-for-arena where the contract is bit-identity.
"""

from __future__ import annotations

import random
import weakref
from contextlib import contextmanager
from unittest import mock

from repro import Spanner
from repro.core.documents import as_text
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime import kernel
from repro.runtime.kernel import POWER_MIN
from repro.runtime.subset import CompiledSubsetEVA

__all__ = [
    "AUTOMATON_FORMS",
    "FACADE_ENGINES",
    "adversarial_chunkings",
    "adversarial_documents",
    "assert_all_engines_agree",
    "assert_arena_identical",
    "automaton_form",
    "facade_results",
    "plans_forbidden",
]

#: The monolithic engines reachable through the facade's ``engine=`` knob.
FACADE_ENGINES = ("reference", "compiled")

#: The compiled automaton over a spanner's two sources, named after them
#: (see :func:`automaton_form`).
AUTOMATON_FORMS = ("determinized", "sequential")

_DETERMINIZED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def automaton_form(spanner: Spanner, form: str) -> CompiledSubsetEVA:
    """*spanner*'s compiled automaton in one of :data:`AUTOMATON_FORMS`.

    ``"sequential"`` is :meth:`Spanner.runtime`, the sequential eVA
    determinized on the fly, which every request runs.  ``"determinized"``
    is the same automaton over the up-front determinized eVA
    (:meth:`Spanner.compiled`): every subset a singleton, ids in another
    order.  One instance per spanner, so its tables warm across calls.
    """
    if form == "sequential":
        return spanner.runtime()
    runtime = _DETERMINIZED.get(spanner)
    if runtime is None:
        runtime = _DETERMINIZED[spanner] = CompiledSubsetEVA(spanner.compiled())
    return runtime


def adversarial_chunkings(text: str, seed: int = 0, random_splits: int = 2):
    """Yield ``(label, chunks)`` pairs covering the nasty chunk shapes.

    Every chunking concatenates back to *text*.  ``bytes`` chunkings
    split the UTF-8 encoding at positions chosen to land *inside*
    multi-byte sequences whenever the text has any, so the streaming
    evaluator's incremental decoder is exercised on every call.
    """
    yield "whole", [text]
    yield "single-chars", list(text)
    yield "empty-interspersed", [piece for char in text for piece in ("", char)] + [""]

    rng = random.Random(seed)
    for trial in range(random_splits):
        chunks = []
        begin = 0
        while begin < len(text):
            end = min(len(text), begin + rng.randint(1, max(1, len(text) // 2)))
            chunks.append(text[begin:end])
            begin = end
        yield f"random-{trial}", chunks or [""]

    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:
        return  # a lone surrogate: only str chunks can carry it
    if len(raw) != len(text):
        # Multi-byte characters present: cut every byte apart, which is
        # guaranteed to split inside each multi-byte sequence.
        yield "bytes-single", [raw[i : i + 1] for i in range(len(raw))]
        cut = rng.randint(1, max(1, len(raw) - 1)) if len(raw) > 1 else 1
        yield "bytes-split", [raw[:cut], raw[cut:]]
    elif raw:
        yield "bytes-whole", [raw]


def adversarial_documents(seed: int = 0) -> list[str]:
    """The seeded corpus of streaming-hostile documents.

    Mixes the two-letter pattern alphabet with characters the patterns
    never mention (an accented letter, a low codepoint, an astral-plane
    emoji) so that the ``OTHER`` class, the foreign class and multi-byte
    chunk splits are all on the table, plus uniform runs of at least
    ``2 * POWER_MIN`` characters, which the count loop takes by powers.
    """
    rng = random.Random(seed)
    corpus = [
        "",
        "a",
        "é",
        "ab" * 3,
        "aéb",
        "a\x00b",
        "ab\U0001f600ba",
        "éé" + "ab" * 2 + "é",
        "b" + "a" * (2 * POWER_MIN) + "é",
    ]
    alphabet = "abé\x00"
    for _ in range(4):
        corpus.append(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        )
    return corpus


_ARENA_ARRAYS = (
    "node_markers",
    "node_positions",
    "node_starts",
    "node_ends",
    "cell_nodes",
    "cell_nexts",
    "final_entries",
)


def assert_arena_identical(actual, expected, *, context: str = "") -> None:
    """Assert two :class:`CompiledResultDag` arenas are bit-identical.

    Stronger than comparing mapping sets: every array must match element
    for element, which pins node sharing, allocation order and list
    splicing — exactly what a chunk-fed or fast-path-free run must
    reproduce.
    """
    for name in _ARENA_ARRAYS:
        left = list(getattr(actual, name))
        right = list(getattr(expected, name))
        assert left == right, (
            f"arena array {name!r} differs{context}: {left} != {right}"
        )


@contextmanager
def plans_forbidden(runtime, length: int):
    """Run *runtime*'s loops on documents of up to *length* characters in
    their state-indexed form from the first position.

    The set table is dropped, so no plan is left to reuse, and the plan
    credit is spent before the first plan is built.
    """
    runtime._set_table = None
    with mock.patch.object(kernel, "PLAN_CREDIT", -length - 1):
        yield


def _mapping_set(mappings) -> frozenset[str]:
    return frozenset(str(mapping) for mapping in mappings)


def facade_results(spanner: Spanner, text: str) -> dict[str, frozenset[str]]:
    """The mapping set per facade engine (plus the ``auto`` plan)."""
    results = {"auto": _mapping_set(spanner.evaluate(text))}
    for engine in FACADE_ENGINES:
        results[engine] = _mapping_set(spanner.evaluate(text, engine=engine))
    return results


def assert_all_engines_agree(
    spanner_spec,
    document,
    *,
    seed: int = 0,
    streaming: bool = True,
    spanner: Spanner | None = None,
) -> frozenset[str]:
    """Assert every engine and every chunking yields one mapping set.

    *spanner_spec* is anything :class:`Spanner` accepts (pattern text,
    regex AST, VA, eVA); pass a prebuilt *spanner* instead to reuse its
    compilation cache across calls.  Returns the agreed mapping set, so
    callers can additionally compare it against an external oracle (the
    reference regex semantics, a baseline enumerator, ...).
    """
    if spanner is None:
        spanner = Spanner(spanner_spec)
    text = as_text(document)

    results = facade_results(spanner, text)
    expected = results["compiled"]
    counts = {
        engine: spanner.count(text, engine=engine) for engine in FACADE_ENGINES
    }
    counts["auto"] = spanner.count(text)
    for engine, mapping_set in results.items():
        assert mapping_set == expected, (
            f"engine {engine!r} disagrees with 'compiled': "
            f"{sorted(mapping_set) } != {sorted(expected)}"
        )
    for engine, count in counts.items():
        assert count == len(expected), (
            f"count({engine!r}) = {count}, enumeration found {len(expected)}"
        )

    # The arena must not depend on the fast path.
    runtime = spanner.runtime(text)
    assert_arena_identical(
        evaluate_compiled_arena(runtime, text, fast_path=False),
        evaluate_compiled_arena(runtime, text),
        context=" (fast_path=False)",
    )

    # Every character stretched into a run long enough for the count
    # loop's powers: the fast count (repeats and powers), the plain
    # count and the reference count must agree on both forms.
    stretched = "".join(char * (2 * POWER_MIN) for char in text[:8])
    reference_count = spanner.count(stretched, engine="reference")
    for form in AUTOMATON_FORMS:
        for fast_path in (True, False):
            count = count_compiled(
                automaton_form(spanner, form), stretched, fast_path=fast_path
            )
            assert count == reference_count, (
                f"{form} count(fast_path={fast_path}) of the "
                f"stretched text = {count}, reference = {reference_count}"
            )

    if not streaming:
        return expected

    # Stream through the spanner's one compilation, with no declared
    # alphabet and with one disjoint from the document: the declaration
    # must not change the output, and no character may raise.
    for alphabet in ((), "q"):
        for emit in ("on_finish", "incremental"):
            for label, chunks in adversarial_chunkings(text, seed=seed):
                context = f"alphabet={alphabet!r} emit={emit!r} chunking={label!r}"
                evaluator = spanner.stream(alphabet=alphabet, emit=emit)
                fed = []
                for chunk in chunks:
                    fed.extend(evaluator.feed(chunk))
                result = evaluator.finish()
                got = _mapping_set(result)
                assert got == expected, (
                    f"streaming {context} disagrees: "
                    f"{sorted(got)} != {sorted(expected)}"
                )
                assert result.count() == len(expected), (
                    f"streaming {context} count mismatch"
                )
                assert _mapping_set(fed) <= expected, (
                    f"streaming {context} flushed a mapping outside the output"
                )
    return expected
