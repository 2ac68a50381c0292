"""Documents: the strings from which information is extracted.

A document is simply a finite string over a finite alphabet.  Most library
entry points accept either a plain ``str`` or a :class:`Document`; the class
exists to carry convenience helpers (alphabet extraction, span slicing,
position arithmetic) and to make benchmark workloads self-describing.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from repro.core.errors import SpanError
from repro.core.spans import Span

__all__ = ["Document", "DocumentCollection", "as_text"]


def as_text(document: object) -> str:
    """Normalize a document argument (``str`` or :class:`Document`) to ``str``."""
    if isinstance(document, str):
        return document
    if isinstance(document, Document):
        return document.text
    text = getattr(document, "text", None)
    if isinstance(text, str):
        return text
    raise TypeError(f"expected a document (str or Document), got {document!r}")


class Document:
    """A wrapper around an input string.

    >>> doc = Document("John<j@g.be>, Jane<555-12>")
    >>> len(doc)
    26
    >>> doc[Span(0, 4)]
    'John'
    """

    __slots__ = ("_text", "_name", "_encodings")

    #: How many per-signature encodings one document retains (see
    #: :meth:`store_encoding`); evaluating the same document under more
    #: distinct alphabet classings than this evicts the least recently
    #: used entry.  Sized for a hybrid plan with several distinctly
    #: classed fused leaves over one document.
    MAX_CACHED_ENCODINGS = 8

    def __init__(self, text: str, name: str | None = None) -> None:
        if not isinstance(text, str):
            raise TypeError(f"document text must be a string, got {text!r}")
        self._text = text
        self._name = name
        self._encodings: dict | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_file(cls, path: str | os.PathLike, encoding: str = "utf-8") -> "Document":
        """Load a document from a text file."""
        with open(path, "r", encoding=encoding) as handle:
            return cls(handle.read(), name=os.fspath(path))

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def text(self) -> str:
        """The underlying string."""
        return self._text

    @property
    def name(self) -> str | None:
        """An optional human-readable name (e.g. the source path)."""
        return self._name

    def __len__(self) -> int:
        return len(self._text)

    def __iter__(self) -> Iterator[str]:
        return iter(self._text)

    def alphabet(self) -> frozenset[str]:
        """The set of symbols occurring in the document."""
        return frozenset(self._text)

    def __getitem__(self, key: object) -> str:
        if isinstance(key, Span):
            return key.content(self._text)
        if isinstance(key, (int, slice)):
            return self._text[key]
        raise TypeError(f"cannot index a document with {key!r}")

    def span(self) -> Span:
        """The span covering the whole document."""
        return Span(0, len(self._text))

    def spans(self) -> Iterator[Span]:
        """Iterate over every span of the document (``O(|d|²)`` of them)."""
        n = len(self._text)
        for begin in range(n + 1):
            for end in range(begin, n + 1):
                yield Span(begin, end)

    def find_all(self, needle: str) -> Iterator[Span]:
        """Yield the spans of every (possibly overlapping) occurrence of *needle*."""
        if needle == "":
            raise SpanError("cannot search for the empty string")
        start = self._text.find(needle)
        while start != -1:
            yield Span(start, start + len(needle))
            start = self._text.find(needle, start + 1)

    # ------------------------------------------------------------------ #
    # Encoded-form cache (filled by repro.runtime.encoding)
    # ------------------------------------------------------------------ #
    #
    # The compiled engines translate a document into a flat class-id buffer
    # before evaluating it (one C-level pass, see
    # :mod:`repro.runtime.encoding`).  That buffer depends only on the text
    # and the automaton's alphabet-classing *signature*, so the document
    # itself is the natural cache: repeated ``enumerate``/``count`` calls,
    # every fused leaf of a hybrid plan and every batch engine invocation
    # reuse one pass per signature.  The keys are opaque hashables — this
    # module knows nothing about the runtime layer.

    def cached_encoding(self, signature: object):
        """The cached encoded form for *signature*, or ``None``.

        A hit refreshes the entry's recency, so a plan cycling through
        several signatures keeps its working set alive (LRU, not FIFO).
        """
        encodings = self._encodings
        if encodings is None:
            return None
        encoded = encodings.get(signature)
        if encoded is not None:
            encodings[signature] = encodings.pop(signature)
        return encoded

    def store_encoding(self, signature: object, encoded: object) -> None:
        """Cache *encoded* under *signature* (LRU-bounded per document)."""
        encodings = self._encodings
        if encodings is None:
            encodings = self._encodings = {}
        elif (
            signature not in encodings
            and len(encodings) >= self.MAX_CACHED_ENCODINGS
        ):
            encodings.pop(next(iter(encodings)))
        encodings[signature] = encoded

    def cached_encodings(self) -> int:
        """How many encoded forms this document currently caches."""
        return 0 if self._encodings is None else len(self._encodings)

    # The cache never crosses a process boundary: workers rebuild encodings
    # against their own compiled automata, and shipping buffers would bloat
    # every pickled chunk of the batch engine.

    def __getstate__(self) -> tuple[str, str | None]:
        return (self._text, self._name)

    def __setstate__(self, state: tuple[str, str | None]) -> None:
        self._text, self._name = state
        self._encodings = None

    def iter_chunks(self, chunk_size: int) -> Iterator[str]:
        """Yield the text in consecutive slices of at most *chunk_size* chars.

        The chunk protocol of the streaming evaluator
        (:mod:`repro.runtime.streaming`): consumers that feed chunks
        never need the per-document encoding cache, so chunked
        evaluation keeps peak memory at one encoded chunk instead of a
        whole-document class-id buffer.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        text = self._text
        for begin in range(0, len(text), chunk_size):
            yield text[begin : begin + chunk_size]

    def lines(self) -> Iterator[tuple[Span, str]]:
        """Yield ``(span, line)`` pairs, one per line (terminator excluded).

        Lines are split exactly as :meth:`str.splitlines` does, so every
        terminator it recognizes (``\\n``, ``\\r\\n``, ``\\r``, ``\\v``,
        ``\\f``, ...) ends a line, and the yielded text and span stop
        before the terminator rather than just before a trailing ``\\n``.
        """
        begin = 0
        for line in self._text.splitlines(keepends=True):
            # Re-splitting one keepends chunk strips whatever terminator
            # ended it, without hard-coding the terminator set.
            stripped = line.splitlines()[0] if line else line
            yield Span(begin, begin + len(stripped)), stripped
            begin += len(line)

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Document):
            return self._text == other._text
        if isinstance(other, str):
            return self._text == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._text)

    def __repr__(self) -> str:
        preview = self._text if len(self._text) <= 40 else self._text[:37] + "..."
        if self._name:
            return f"Document({preview!r}, name={self._name!r})"
        return f"Document({preview!r})"


def concatenate(documents: Iterable[Document | str], separator: str = "") -> Document:
    """Concatenate several documents into one."""
    return Document(separator.join(as_text(d) for d in documents))


class DocumentCollection:
    """An ordered, identified set of documents evaluated as one batch.

    The batch engine (:mod:`repro.runtime.batch`) consumes collections:
    every document carries a stable ``doc_id`` so that streamed results can
    be attributed, and :meth:`alphabet` gives the union alphabet needed to
    compile a wildcard pattern once for the whole batch.

    >>> collection = DocumentCollection.from_texts(["abc", "abd"])
    >>> len(collection)
    2
    >>> [doc_id for doc_id, _ in collection.items()]
    ['doc-0', 'doc-1']
    """

    __slots__ = ("_documents", "_name", "_alphabet")

    def __init__(
        self,
        documents: Iterable[Document | str] | dict[object, Document | str] = (),
        name: str | None = None,
    ) -> None:
        self._documents: dict[object, Document] = {}
        self._name = name
        self._alphabet: frozenset[str] | None = None
        if isinstance(documents, dict):
            for doc_id, document in documents.items():
                self.add(document, doc_id=doc_id)
        else:
            for document in documents:
                self.add(document)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_texts(
        cls, texts: Iterable[str], prefix: str = "doc", name: str | None = None
    ) -> "DocumentCollection":
        """Build a collection from plain strings with ids ``{prefix}-{i}``."""
        collection = cls(name=name)
        for index, text in enumerate(texts):
            collection.add(Document(text), doc_id=f"{prefix}-{index}")
        return collection

    @classmethod
    def coerce(
        cls, documents: "DocumentCollection | Iterable[Document | str]"
    ) -> "DocumentCollection":
        """Return *documents* as a collection.

        An existing collection passes through unchanged; any other iterable
        of documents gets ids assigned by the one canonical policy (the
        document's ``name`` if set, its position otherwise).  A bare string
        is rejected — it is almost certainly a single document, not a
        collection of characters.
        """
        if isinstance(documents, cls):
            return documents
        if isinstance(documents, str):
            raise TypeError(
                "expected a collection of documents; wrap a single document "
                "in a list or a DocumentCollection"
            )
        collection = cls()
        for index, document in enumerate(documents):
            name = getattr(document, "name", None)
            collection.add(document, doc_id=name if name is not None else index)
        return collection

    @classmethod
    def from_files(
        cls, paths: Iterable[str | os.PathLike], encoding: str = "utf-8"
    ) -> "DocumentCollection":
        """Load one document per path, keyed by the path itself."""
        collection = cls()
        for path in paths:
            collection.add(Document.from_file(path, encoding=encoding))
        return collection

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, document: Document | str, doc_id: object = None) -> object:
        """Append *document* under *doc_id* (defaults to its name or index)."""
        if isinstance(document, str):
            document = Document(document)
        if not isinstance(document, Document):
            raise TypeError(f"expected a document (str or Document), got {document!r}")
        if doc_id is None:
            doc_id = document.name if document.name is not None else len(self._documents)
        if doc_id in self._documents:
            raise ValueError(f"duplicate document id {doc_id!r} in collection")
        self._documents[doc_id] = document
        self._alphabet = None
        return doc_id

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str | None:
        """An optional human-readable name for the collection."""
        return self._name

    def ids(self) -> list[object]:
        """The document ids, in insertion order."""
        return list(self._documents)

    def items(self) -> Iterator[tuple[object, Document]]:
        """Iterate over ``(doc_id, document)`` pairs in insertion order."""
        return iter(self._documents.items())

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._documents

    def __getitem__(self, doc_id: object) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise KeyError(f"no document with id {doc_id!r} in collection") from None

    def alphabet(self) -> frozenset[str]:
        """The union of the documents' alphabets (memoized until mutation).

        Batch evaluation derives its compilation key — and therefore the
        alphabet-classing signature every document is encoded under — from
        this set, so it is computed once per collection state, not once per
        ``run_batch`` call.
        """
        if self._alphabet is None:
            found: set[str] = set()
            for document in self._documents.values():
                found.update(document.text)
            self._alphabet = frozenset(found)
        return self._alphabet

    def encode_all(self, classing) -> int:
        """Pre-encode every document under *classing*, returning the count
        of fresh passes.

        Each member document caches its buffer on itself (see
        :meth:`Document.store_encoding`), so a document appearing several
        times in the collection — or evaluated again later under the same
        signature — is translated exactly once.
        """
        fresh = 0
        for document in self._documents.values():
            if document.cached_encoding(classing.signature) is None:
                fresh += 1
            classing.encode(document)
        return fresh

    def total_length(self) -> int:
        """The summed length of all documents (batch throughput denominator)."""
        return sum(len(document) for document in self._documents.values())

    def chunks(self, size: int) -> Iterator["DocumentCollection"]:
        """Split into sub-collections of at most *size* documents, in order.

        Ids are preserved, so each chunk can be dispatched (e.g. to a
        separate batch run) and the results remain attributable.
        """
        if size < 1:
            raise ValueError(f"chunk size must be positive, got {size}")
        chunk = DocumentCollection(name=self._name)
        for doc_id, document in self._documents.items():
            chunk.add(document, doc_id=doc_id)
            if len(chunk) >= size:
                yield chunk
                chunk = DocumentCollection(name=self._name)
        if len(chunk):
            yield chunk

    def __repr__(self) -> str:
        label = f" name={self._name!r}" if self._name else ""
        return f"DocumentCollection({len(self._documents)} documents{label})"
