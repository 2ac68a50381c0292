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
  engines shrink from ``|Σ|`` to the (often far smaller) class count.  One
  extra *foreign* class, whose column is all ``NO_TARGET``, absorbs every
  character outside the compiled alphabet — the engines need no
  out-of-alphabet branch at all.

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

Engine authors: consume :meth:`SymbolClassing.encode` (or accept an
:class:`EncodedDocument` directly) — do **not** call the legacy
``encode_symbols``; see CONTRIBUTING.
"""

from __future__ import annotations

import re
import sys
from array import array

from repro.core.documents import Document, as_text

__all__ = [
    "EncodedDocument",
    "SymbolClassing",
    "encoding_passes",
    "reset_encoding_passes",
    "run_count",
    "runs_of_buffer",
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


#: Maximal same-byte runs of a ``bytes`` class-id buffer, in one C-level
#: regex pass (the backreference keeps the whole scan inside the engine).
_RUN_PATTERN = re.compile(rb"(.)\1*", re.DOTALL)


def runs_of_buffer(buffer) -> tuple[tuple[int, int], ...]:
    """The run-length encoding of a class-id buffer: ``(class_id, length)``.

    Works on both buffer flavours the encoders produce — ``bytes`` (scanned
    with one C-level regex pass) and ``array('I')`` (grouped with
    :func:`itertools.groupby`).  The run-length segment memo calls this
    directly on buffer *slices*, so a run cut by a slice boundary simply
    shows up as one run per side; every consumer composes per-character,
    which makes the split exact.
    """
    if isinstance(buffer, bytes):
        return tuple(
            (match.group()[0], match.end() - match.start())
            for match in _RUN_PATTERN.finditer(buffer)
        )
    from itertools import groupby

    return tuple(
        (class_id, sum(1 for _ in group)) for class_id, group in groupby(buffer)
    )


#: Ids compared per step of :func:`run_count`.  Bounding the block keeps its
#: big integers below the allocator's memory-mapping threshold; unbounded,
#: every step on a 200k-char buffer maps fresh pages and the count costs
#: about twice as much per id.
_RUN_COUNT_BLOCK = 1 << 14


def run_count(buffer) -> int:
    """``len(runs_of_buffer(buffer))``, without building a single run.

    A buffer of ``n`` ids has ``n`` minus its number of equal neighbours
    runs.  Read as one little-endian integer, a block of ids XOR-ed with
    itself shifted down by one id has a zero item exactly where two
    neighbours are equal, so each block is a few C-level passes.
    Blocks overlap by one id, so every neighbour pair is compared once;
    ``array('I')`` buffers count their zero items through an array of the
    same type.
    """
    n = len(buffer)
    wide = not isinstance(buffer, bytes)
    width = buffer.itemsize if wide else 1
    equal = 0
    for start in range(0, n - 1, _RUN_COUNT_BLOCK):
        piece = buffer[start : start + _RUN_COUNT_BLOCK + 1]
        raw = piece.tobytes() if wide else piece
        value = int.from_bytes(raw, "little")
        # Item i is piece[i] ^ piece[i + 1]; the top item, piece[-1]
        # itself, is cut off.
        diff = (value ^ (value >> 8 * width)).to_bytes(len(raw), "little")[:-width]
        equal += array(buffer.typecode, diff).count(0) if wide else diff.count(0)
    return n - equal


#: Delimiter-probe window: segment statistics are estimated on a prefix so
#: the probe stays O(1) in the document length.
_SEGMENT_PROBE_CHARS = 65536
#: A usable delimiter must cut the probe window into at least this many
#: segments (fewer means the memo would amortize nothing) ...
_SEGMENT_MIN_COUNT = 8
#: ... of a bounded mean length (huge segments are effectively unique, so
#: memoizing them would just cache the document) ...
_SEGMENT_MAX_MEAN = 512
#: ... and of a non-trivial mean length (a delimiter making up most of the
#: buffer produces more segments than characters saved).
_SEGMENT_MIN_MEAN = 4.0
#: Segments between delimiter occurrences must actually repeat: at most
#: this fraction of the probe window's segments may be distinct.
_SEGMENT_MAX_DISTINCT_RATIO = 0.25

_UNPROBED = object()


class EncodedDocument:
    """A document translated once into a flat class-id buffer.

    ``buffer`` is ``bytes`` (one class id per byte) when the classing has at
    most 256 ids, otherwise an ``array('I')``; indexing either yields plain
    ints, which is exactly what the engines' inner loops consume.  The
    original ``text`` is kept so that downstream consumers (span slicing,
    ``as_text``) keep working when an :class:`EncodedDocument` is passed
    where a document is expected.

    Beside the buffer, the run-length view used by the run-length kernels
    (:meth:`runs`, :meth:`run_count`, :meth:`segment_delimiter`) is
    memoized lazily *on this object*: it shares the buffer's lifetime and
    its cache slot on the owning :class:`~repro.core.documents.Document`,
    so evicting the encoding necessarily evicts the RLE view with it — the
    two can never describe different classing signatures.  Pickling drops
    the memo the same way the document-level encoding cache is dropped.
    :meth:`mean_run_length` reads only the run count, so deciding
    ``kernel="auto"`` never builds the per-run tuple.
    """

    __slots__ = (
        "text", "buffer", "length", "signature", "_runs", "_run_count",
        "_delimiter",
    )

    def __init__(self, text: str, buffer, signature: tuple) -> None:
        self.text = text
        self.buffer = buffer
        self.length = len(text)
        self.signature = signature
        self._runs = None
        self._run_count = None
        self._delimiter = _UNPROBED

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        kind = "bytes" if isinstance(self.buffer, bytes) else "array"
        return f"EncodedDocument({self.length} chars, {kind} buffer)"

    # ------------------------------------------------------------------ #
    # Run-length view (lazy, evicted with the encoding, never pickled)
    # ------------------------------------------------------------------ #

    def runs(self) -> tuple[tuple[int, int], ...]:
        """The RLE of the class-id buffer: maximal ``(class_id, length)`` runs."""
        runs = self._runs
        if runs is None:
            runs = runs_of_buffer(self.buffer)
            self._runs = runs
        return runs

    def run_count(self) -> int:
        """``len(self.runs())``, counted in C without building the runs."""
        count = self._run_count
        if count is None:
            count = run_count(self.buffer)
            self._run_count = count
        return count

    def mean_run_length(self) -> float:
        """Average run length — the planner's repetitiveness statistic."""
        count = self.run_count()
        return self.length / count if count else 0.0

    def segment_delimiter(self) -> int | None:
        """The class id the count kernel should segment this buffer on.

        Probes a bounded prefix of the buffer for a byte value that cuts it
        into many short *repeating* segments (for machine-generated text,
        typically the record separator: segments between newlines are drawn
        from a small set of class-id shapes even when the raw characters
        differ).  Returns ``None`` when no byte qualifies — non-``bytes``
        buffers, short documents, or genuinely non-repetitive content —
        and memoizes either answer beside the buffer.
        """
        delimiter = self._delimiter
        if delimiter is _UNPROBED:
            delimiter = self._probe_delimiter()
            self._delimiter = delimiter
        return delimiter

    def _probe_delimiter(self) -> int | None:
        buffer = self.buffer
        if not isinstance(buffer, bytes):
            return None
        prefix = buffer[:_SEGMENT_PROBE_CHARS]
        best: tuple[int, int] | None = None
        for value in set(prefix):
            segments = prefix.split(bytes((value,)))
            count = len(segments)
            mean = len(prefix) / count
            if (
                count < _SEGMENT_MIN_COUNT
                or mean > _SEGMENT_MAX_MEAN
                or mean < _SEGMENT_MIN_MEAN
            ):
                continue
            if len(set(segments)) > count * _SEGMENT_MAX_DISTINCT_RATIO:
                continue
            # The steady-state cost of the segmented count pass is one memo
            # lookup per segment, so among qualifying delimiters the one
            # producing the fewest segments wins.
            if best is None or count < best[0]:
                best = (count, value)
        return None if best is None else best[1]

    # ------------------------------------------------------------------ #
    # Pickling drops the lazy run-length memo, mirroring the encoding
    # cache dropped by Document.__getstate__.
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        return (self.text, self.buffer, self.signature)

    def __setstate__(self, state) -> None:
        text, buffer, signature = state
        self.__init__(text, buffer, signature)


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
        "num_ids",
        "signature",
        "_hash",
        "_byte_table",
        "_str_table",
        "_cleanup",
        "_foreign_char",
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

        # str.translate table: alphabet symbols map to their class id; the
        # low codepoints that could be confused with class ids map to the
        # foreign class.  After translation every char with ord <= the
        # foreign id IS a class id, and everything above is a foreign
        # character, fixed up by one C-level regex substitution.
        table = {ord(symbol): cls for symbol, cls in zip(self.symbols, self.class_of)}
        for codepoint in range(self.num_ids):
            table.setdefault(codepoint, self.foreign_class)
        self._str_table = table
        self._foreign_char = chr(self.foreign_class)
        self._cleanup = re.compile(
            "[^\\x00-" + re.escape(chr(self.foreign_class)) + "]"
        )

        # bytes.translate table for the fast path: latin-1 documents over a
        # <=256-id classing translate at memcpy speed.
        if self.num_ids <= 256:
            byte_table = bytearray([self.foreign_class]) * 256
            for symbol, cls in zip(self.symbols, self.class_of):
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
        """Translate *text* into a class-id buffer (no cache consulted)."""
        global _fresh_passes
        _fresh_passes += 1

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
        cleaned = self._cleanup.sub(self._foreign_char, translated)
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
