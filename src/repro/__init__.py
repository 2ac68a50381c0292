"""Constant delay enumeration for regular document spanners.

This package is a from-scratch reproduction of the system described in
*"Constant delay algorithms for regular document spanners"* (Florenzano,
Riveros, Ugarte, Vansummeren and Vrgoč, 2018).  It provides:

* the data model of documents, spans and mappings (:mod:`repro.core`),
* variable-set automata and extended variable-set automata together with
  all the translations studied in the paper (:mod:`repro.automata`),
* regex formulas with a parser, a reference semantics and a compiler to
  automata (:mod:`repro.regex`),
* the spanner algebra with both set-level and automaton-level operators
  (:mod:`repro.algebra`),
* the constant-delay evaluation algorithm (:mod:`repro.enumeration`),
* output counting and the Census reduction (:mod:`repro.counting`),
* baseline enumeration algorithms used for comparison
  (:mod:`repro.baselines`),
* a high level :class:`~repro.spanners.Spanner` facade
  (:mod:`repro.spanners`),
* synthetic workload generators used by the benchmark harness
  (:mod:`repro.workloads`), and
* a long-lived asyncio extraction service with a shared plan cache,
  admission control and ``/metrics`` (:mod:`repro.server`, ``repro serve``).

Quickstart
----------

>>> from repro import Spanner
>>> spanner = Spanner.from_regex(".* name{[A-Z][a-z]+} .*")
>>> sorted(m["name"].content("hi Ada !") for m in spanner.evaluate("hi Ada !"))
['Ada']
"""

from repro.core.documents import Document, DocumentCollection
from repro.core.errors import (
    CompilationError,
    EvaluationError,
    NotDeterministicError,
    NotSequentialError,
    ReproError,
    SpanError,
    StreamingError,
)
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.runtime.plan import CacheStats, PlanCache
from repro.spanners.spanner import Spanner

__all__ = [
    "CacheStats",
    "CompilationError",
    "Document",
    "DocumentCollection",
    "EvaluationError",
    "Mapping",
    "NotDeterministicError",
    "NotSequentialError",
    "PlanCache",
    "ReproError",
    "Span",
    "SpanError",
    "Spanner",
    "StreamingError",
    "__version__",
]

__version__ = "1.0.0"
