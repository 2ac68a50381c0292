"""Property tests: class-compressed encoding + quiescent fast path ≡ reference.

Random regex formulas are compiled once over a fixed two-letter alphabet,
then evaluated over adversarial documents — empty strings, foreign
(out-of-alphabet) characters mid-run including low codepoints that collide
with class ids, single-class alphabets — by every compiled engine with the
quiescent-run fast path both enabled and disabled.  All of them must equal
the paper-faithful reference engine, mapping set and count alike.  A
hand-built automaton with zero silent states pins the regime in which the
fast path can never engage, and counting tests pin the "one encoding pass
per document and signature" invariant across the facade, the batch engine
and hybrid operator plans.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import Atom
from repro.automata.builders import EVABuilder
from repro.core.documents import Document, DocumentCollection
from repro.enumeration.evaluate import evaluate as reference_evaluate
from repro.regex.ast import (
    AnyChar,
    Capture,
    Concat,
    Epsilon,
    Literal,
    Optional,
    Plus,
    Star,
    Union,
)
from repro.runtime import encoding
from repro.runtime.compiled import compile_eva
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.operators import FusedLeaf, HashJoin
from repro.spanners.spanner import Spanner

ALPHABET = "ab"

#: Document characters: the compiled alphabet, a latin-1 foreigner, a high
#: codepoint, and control characters that collide with low class ids.
ADVERSARIAL = ALPHABET + "z✗\x00\x01"


def regex_nodes():
    """A strategy generating small regex-formula ASTs (alphabet ``ab``)."""
    leaves = st.sampled_from([Epsilon(), AnyChar(), Literal("a"), Literal("b")])

    def extend(children):
        variable = st.sampled_from(["x", "y", "z"])
        return st.one_of(
            st.builds(lambda a, b: Concat([a, b]), children, children),
            st.builds(lambda a, b: Union([a, b]), children, children),
            st.builds(Star, children),
            st.builds(Plus, children),
            st.builds(Optional, children),
            st.builds(Capture, variable, children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


documents = st.text(alphabet=ADVERSARIAL, min_size=0, max_size=8)


@settings(max_examples=60, deadline=None)
@given(node=regex_nodes(), text=documents)
def test_dense_engines_equal_reference_on_adversarial_documents(node, text):
    spanner = Spanner.from_regex(node)
    automaton = spanner.compiled(ALPHABET)
    compiled = compile_eva(automaton, check_determinism=False)
    reference = reference_evaluate(automaton, text, check_determinism=False)
    expected = set(reference)
    expected_count = reference.count()
    for fast_path in (True, False):
        document = Document(text)
        arena = evaluate_compiled_arena(compiled, document, fast_path=fast_path)
        assert set(arena) == expected
        assert arena.count() == expected_count
        assert set(arena.to_result_dag()) == expected
        assert count_compiled(compiled, document, fast_path=fast_path) == (
            expected_count
        )


@settings(max_examples=40, deadline=None)
@given(node=regex_nodes(), text=documents)
def test_subset_engines_equal_reference_on_adversarial_documents(node, text):
    spanner = Spanner.from_regex(node)
    automaton = spanner.compiled(ALPHABET)
    reference = reference_evaluate(automaton, text, check_determinism=False)
    expected = set(reference)
    expected_count = reference.count()
    subset_eva = spanner.otf_runtime(ALPHABET)
    for fast_path in (True, False):
        document = Document(text)
        dag = evaluate_compiled_arena(subset_eva, document, fast_path=fast_path)
        assert set(dag) == expected
        assert dag.count() == expected_count
        assert count_compiled(subset_eva, document, fast_path=fast_path) == (
            expected_count
        )


def zero_silent_eva():
    """A deterministic eVA in which *every* state has a variable transition,
    so the quiescent fast path can never engage."""
    return (
        EVABuilder()
        .initial("q0")
        .final("q2")
        .capture("q0", ["x"], [], "q1")
        .letter("q1", "ab", "q1")
        .capture("q1", [], ["x"], "q2")
        .capture("q2", ["y"], [], "sink")
        .capture("sink", [], ["y"], "sink")
        .build()
    )


@settings(max_examples=40, deadline=None)
@given(text=st.text(alphabet=ADVERSARIAL, min_size=0, max_size=10))
def test_zero_silent_automaton(text):
    automaton = zero_silent_eva()
    compiled = compile_eva(automaton, check_determinism=False)
    assert not any(compiled.silent)
    reference = reference_evaluate(automaton, text, check_determinism=False)
    expected = set(reference)
    for fast_path in (True, False):
        arena = evaluate_compiled_arena(compiled, Document(text), fast_path=fast_path)
        assert set(arena) == expected
        assert count_compiled(compiled, Document(text), fast_path=fast_path) == (
            reference.count()
        )


@settings(max_examples=20, deadline=None)
@given(text=st.text(alphabet="a", min_size=0, max_size=12))
def test_single_class_alphabet(text):
    # No wildcard: the automaton reads no OTHER column, so "a" is its one
    # class.
    spanner = Spanner.from_regex("a*x{a+}a*")
    automaton = spanner.compiled()
    compiled = compile_eva(automaton, check_determinism=False)
    assert compiled.num_classes == 1
    reference = reference_evaluate(automaton, text, check_determinism=False)
    arena = evaluate_compiled_arena(compiled, Document(text))
    assert set(arena) == set(reference)
    assert arena.count() == reference.count()


class TestEncodeOncePerSignature:
    def test_batch_encodes_each_document_once(self):
        shared = Document("abaab" * 30)
        twin = Document(shared.text)  # equal text, distinct cache
        collection = DocumentCollection(
            {"first": shared, "second": shared, "third": twin}
        )
        spanner = Spanner.from_regex(".*x{a+b}.*")
        # Warm the compilation cache so only encoding passes are counted.
        list(spanner.run_batch(collection))
        encoding.reset_encoding_passes()
        list(spanner.run_batch(collection))
        # Everything was already cached on the documents themselves.
        assert encoding.encoding_passes() == 0
        # A cold cache encodes once per distinct Document object.
        cold = DocumentCollection(
            {"first": Document(shared.text), "second": Document(shared.text)}
        )
        encoding.reset_encoding_passes()
        list(spanner.run_batch(cold))
        assert encoding.encoding_passes() == 2

    def test_hybrid_leaves_encode_once_per_signature(self):
        left = FusedLeaf(Atom(".*x{a+b}.*")).prepare(frozenset(ALPHABET))
        right = FusedLeaf(Atom(".*x{ab+}.*")).prepare(frozenset(ALPHABET))
        join = HashJoin([left, right])
        document = Document("aabb" * 25)
        signatures = {
            leaf.runtime.classing.signature for leaf in (left, right)
        }
        encoding.reset_encoding_passes()
        join.execute(document)
        first_run = encoding.encoding_passes()
        assert first_run <= len(signatures)
        # Re-executing the plan over the same document re-encodes nothing.
        join.execute(document)
        assert encoding.encoding_passes() == first_run
