"""C-speed document encoding shared by every compiled engine.

The compiled runtimes spend most of their per-character budget *before*
Algorithm 1 even runs: translating the document into integer symbol ids.
The original :func:`~repro.runtime.compiled.encode_symbols` walked the
string with a per-character dict ``.get`` — a Python-level loop paid again
on **every** engine invocation, even when the same document was evaluated
repeatedly (``enumerate`` then ``count``, every fused leaf of a hybrid
plan, every benchmark repeat).  This module replaces it with:

* **Symbol equivalence classes** — a :class:`SymbolClassing` maps each
  alphabet symbol to the id of its *behavioural class*: two symbols whose
  columns in the dense letter table are identical (every ``[a-z]``-style
  wildcard edge) share one class, so the per-state rows consumed by the
  engines shrink from ``|Σ|`` to the (often far smaller) class count.
  Every character the automaton does not name reads as
  :data:`~repro.core.documents.OTHER` when the automaton has an ``OTHER``
  column (a wildcard or negated class), and as one extra *foreign* class,
  whose column is all ``NO_TARGET``, otherwise.  The foreign column is
  kept either way, so every state has a class it stops on and the engines
  need no out-of-alphabet branch at all.

* **One C-level encoding pass per document** — :meth:`SymbolClassing.encode`
  translates the whole document in bulk (``bytes.translate`` for latin-1
  texts, ``str.translate`` otherwise — both single C passes) into a compact
  class-id buffer: ``bytes`` when the class count fits a byte (the overwhelming
  case; byte indexing yields ints for free), an ``array('I')`` otherwise.

* **A per-document cache** — the resulting :class:`EncodedDocument` is
  cached on the :class:`~repro.core.documents.Document` keyed by the
  classing's *signature* (the ``(symbols, classes)`` pair), so two compiled
  automata with the same behavioural classing — or one automaton invoked
  through ``enumerate``/``count``/``extract``/``run_batch`` — share a
  single encoding pass.  The module-level :func:`encoding_passes` counter
  exists so tests can pin the "encoded at most once per signature"
  invariant.

An encoded document is its buffer and nothing derived from it: the count
loop finds the runs it takes by powers itself
(:func:`repro.runtime.kernel.count_loop`).

Engine authors: consume :meth:`SymbolClassing.encode` (or accept an
:class:`EncodedDocument` directly) — do **not** call the legacy
``encode_symbols``; see CONTRIBUTING.
"""

from __future__ import annotations

import re
import sys
from array import array

from repro.core.documents import OTHER, Document, as_text
from repro.runtime import faults

__all__ = [
    "EncodedDocument",
    "SymbolClassing",
    "encoding_passes",
    "reset_encoding_passes",
]

#: How many fresh (non-cached) encoding passes have run since import (or the
#: last :func:`reset_encoding_passes`).  A test hook: the satellite invariant
#: "one batch document is encoded at most once per alphabet signature" is
#: asserted by comparing this counter across evaluations.
_fresh_passes = 0


def encoding_passes() -> int:
    """The number of fresh document-encoding passes performed so far."""
    return _fresh_passes


def reset_encoding_passes() -> None:
    """Reset the pass counter (test isolation)."""
    global _fresh_passes
    _fresh_passes = 0


class EncodedDocument:
    """A document translated once into a flat class-id buffer.

    ``buffer`` is ``bytes`` (one class id per byte) when the classing has at
    most 256 ids, otherwise an ``array('I')``; indexing either yields plain
    ints, which is exactly what the engines' inner loops consume.  The
    original ``text`` is kept so that downstream consumers (span slicing,
    ``as_text``) keep working when an :class:`EncodedDocument` is passed
    where a document is expected.
    """

    __slots__ = ("text", "buffer", "length", "signature")

    def __init__(self, text: str, buffer, signature: tuple) -> None:
        self.text = text
        self.buffer = buffer
        self.length = len(text)
        self.signature = signature

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        kind = "bytes" if isinstance(self.buffer, bytes) else "array"
        return f"EncodedDocument({self.length} chars, {kind} buffer)"


class SymbolClassing:
    """The alphabet → equivalence-class translation of one compiled automaton.

    Built once at compile time from the interned symbol order and the
    per-symbol class ids (symbols whose letter-table columns coincide share
    a class).  Two classings compare (and hash) equal iff their signatures
    do, so encodings cached on documents are shared across independently
    compiled automata with the same behaviour.
    """

    __slots__ = (
        "symbols",
        "class_of",
        "num_classes",
        "foreign_class",
        "other_class",
        "num_ids",
        "signature",
        "_hash",
        "_byte_table",
        "_str_table",
        "_cleanup",
        "_other_char",
    )

    def __init__(self, symbols: tuple[str, ...], class_of) -> None:
        self.symbols = tuple(symbols)
        self.class_of = tuple(class_of)
        if len(self.symbols) != len(self.class_of):
            raise ValueError("one class id per symbol is required")
        self.num_classes = (max(self.class_of) + 1) if self.class_of else 0
        #: The one extra class whose letter column is all ``NO_TARGET``.
        self.foreign_class = self.num_classes
        self.num_ids = self.num_classes + 1
        self.signature = (self.symbols, self.class_of)
        self._hash = hash(self.signature)
        named = dict(zip(self.symbols, self.class_of))
        #: The class of every character the automaton does not name:
        #: OTHER's class if the automaton reads OTHER, else the foreign one.
        self.other_class = named.pop(OTHER, self.foreign_class)

        # str.translate table: alphabet symbols map to their class id; the
        # low codepoints that could be confused with class ids map to the
        # other class.  After translation every char with ord <= the
        # foreign id IS a class id, and everything above is an unnamed
        # character, fixed up by one C-level regex substitution.
        table = {ord(symbol): cls for symbol, cls in named.items()}
        for codepoint in range(self.num_ids):
            table.setdefault(codepoint, self.other_class)
        self._str_table = table
        self._other_char = chr(self.other_class)
        self._cleanup = re.compile(
            "[^\\x00-" + re.escape(chr(self.foreign_class)) + "]"
        )

        # bytes.translate table for the fast path: latin-1 documents over a
        # <=256-id classing translate at memcpy speed.
        if self.num_ids <= 256:
            byte_table = bytearray([self.other_class]) * 256
            for symbol, cls in named.items():
                point = ord(symbol)
                if point < 256:
                    byte_table[point] = cls
            self._byte_table = bytes(byte_table)
        else:
            self._byte_table = None

    # ------------------------------------------------------------------ #
    # Equality by signature, so caches hit across compilations
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SymbolClassing):
            return self.signature == other.signature
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"SymbolClassing({len(self.symbols)} symbols -> "
            f"{self.num_classes} classes + foreign)"
        )

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def encode_fresh(self, text: str) -> EncodedDocument:
        """Translate *text* into a class-id buffer (no cache consulted).

        Every encoding runs this pass (whole documents, subset runtimes
        and streamed chunks alike), so it hosts the ``"encode"`` fault
        site.
        """
        global _fresh_passes
        _fresh_passes += 1
        if faults._ACTIVE_PLAN is not None:
            faults.maybe_fault("encode")

        if self._byte_table is not None:
            # Fast path: latin-1 text over a byte-sized classing translates
            # with two C passes (encode + translate); any symbol >= U+0100
            # in the text falls back to the general route below.
            try:
                raw = text.encode("latin-1")
            except UnicodeEncodeError:
                pass
            else:
                return EncodedDocument(
                    text, raw.translate(self._byte_table), self.signature
                )

        translated = text.translate(self._str_table)
        cleaned = self._cleanup.sub(self._other_char, translated)
        if self.num_ids <= 256:
            buffer: object = cleaned.encode("latin-1")
        else:
            codec = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"
            buffer = array("I", cleaned.encode(codec))
            if buffer.itemsize != 4:  # pragma: no cover - exotic platforms
                buffer = array("I", (ord(char) for char in cleaned))
        return EncodedDocument(text, buffer, self.signature)

    def encode(self, document: object) -> EncodedDocument:
        """The encoded form of *document*, reusing every available cache.

        Accepts a ``str``, a :class:`~repro.core.documents.Document` (whose
        per-signature cache is consulted and filled) or an
        :class:`EncodedDocument` — an already-encoded document with a
        matching signature passes straight through, so callers can encode
        once at the top of a pipeline and hand the buffer down.
        """
        if isinstance(document, EncodedDocument):
            if document.signature == self.signature:
                return document
            document = document.text
        if isinstance(document, Document):
            cached = document.cached_encoding(self.signature)
            if cached is not None:
                return cached
            encoded = self.encode_fresh(document.text)
            document.store_encoding(self.signature, encoded)
            return encoded
        return self.encode_fresh(as_text(document))
