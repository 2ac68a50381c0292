"""The reusable cross-engine differential-testing harness.

One call — :func:`assert_all_engines_agree` — pins every evaluation route
of the library against each other on one ``(spanner, document)`` pair:

* the facade engines (``reference``, ``compiled``, ``compiled-otf``) plus
  the ``auto`` plan, for both enumeration and counting;
* the chunk-fed :class:`~repro.runtime.streaming.StreamingEvaluator`, in
  **both** emit modes, over a seeded adversarial set of chunkings of the
  same document: whole-document, one-character chunks, empty chunks
  interspersed, random seeded splits, and UTF-8 byte streams split
  *inside* multi-byte sequences;
* the run-length kernel (:mod:`repro.runtime.runlength`): its count
  must equal the scalar count, and the facade's arena under every
  ``kernel=`` value must be **bit-identical** (arrays, not just mapping
  sets) to the scalar arena (the axis never reaches an arena).

The streaming evaluator runs the same single compilation as the
whole-document engines, opened with no declared alphabet and with one
disjoint from the document (``alphabet="q"``): the declaration must not
matter, and characters the pattern never names (the adversarial corpus
plants them at chunk boundaries) read as ``OTHER``, in every emit mode.

:func:`adversarial_documents` is the seeded document corpus used by the
deterministic streaming tests: multi-byte runs around chunk boundaries,
characters outside the pattern alphabet, empty documents and single
characters.

Since the kernel-spec refactor every route above executes a loop
generated by :mod:`repro.runtime.kernel` — one :class:`KernelSpec` point
per engine entry — so one harness call doubles as the equivalence gate
over the whole spec lattice: capture modes against each other, dense
tables against the on-the-fly subset tables, and whole-buffer against
resumable chunking, arena-for-arena where the contract is bit-identity.
"""

from __future__ import annotations

import random

from repro import Spanner
from repro.core.documents import as_text
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import KERNELS
from repro.runtime.runlength import count_runlength

__all__ = [
    "FACADE_ENGINES",
    "adversarial_chunkings",
    "adversarial_documents",
    "assert_all_engines_agree",
    "assert_arena_identical",
    "facade_results",
]

#: The monolithic engines reachable through the facade's ``engine=`` knob.
FACADE_ENGINES = ("reference", "compiled", "compiled-otf")


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
    chunk splits are all on the table.
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

    # The run-length kernel's count must match the scalar Algorithm 3
    # exactly.  The arena
    # must not depend on the kernel axis at all — the facade builds it
    # with the scalar engine, with the fast path on or off.
    runtime = spanner.runtime(text)
    serial_arena = evaluate_compiled_arena(runtime, text)
    serial_count = count_compiled(runtime, text)
    assert count_runlength(runtime, text) == serial_count, (
        f"count_runlength = {count_runlength(runtime, text)}, "
        f"scalar count = {serial_count}"
    )
    assert_arena_identical(
        evaluate_compiled_arena(runtime, text, fast_path=False),
        serial_arena,
        context=" (fast_path=False)",
    )
    for kernel in KERNELS:
        assert_arena_identical(
            spanner.preprocess(text, engine="compiled", kernel=kernel),
            serial_arena,
            context=f" (facade kernel={kernel!r})",
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
