"""Property-based tests: the compiled runtime equals the reference engine.

Random regex formulas (the same structural strategy as
``test_engine_equivalence``) are compiled once, then evaluated over random
documents with both the integer-indexed runtime (``engine="compiled"``)
and the legacy dict-based Algorithm 1 (``engine="reference"``).  The two
must produce identical mapping sets and identical counts — including after
a round trip through the portable DAG form used by the process-parallel
batch mode.
"""

from hypothesis import given, settings, strategies as st

from repro import Spanner
from repro.core.documents import DocumentCollection
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
from repro.runtime.batch import freeze_result, run_batch, thaw_result
from repro.runtime.subset import CompiledSubsetEVA

ALPHABET = "ab"


def regex_nodes():
    """A strategy generating small regex-formula ASTs."""
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


documents = st.text(alphabet=ALPHABET, min_size=0, max_size=6)


@settings(max_examples=80, deadline=None)
@given(node=regex_nodes(), document=documents)
def test_compiled_engine_equals_reference_engine(node, document):
    spanner = Spanner.from_regex(node)
    reference = spanner.preprocess(document, engine="reference")
    compiled = spanner.preprocess(document, engine="compiled")
    assert set(spanner.evaluate(document, engine="compiled")) == set(
        spanner.evaluate(document, engine="reference")
    )
    assert compiled.count() == reference.count()


@settings(max_examples=40, deadline=None)
@given(node=regex_nodes(), document=documents)
def test_portable_dag_roundtrip_preserves_results(node, document):
    spanner = Spanner.from_regex(node)
    runtime = spanner.runtime(document)
    original = spanner.preprocess(document, engine="compiled")
    # A fresh automaton over the same source interns subsets in its own
    # order, as a worker process does.
    fresh = CompiledSubsetEVA(runtime.source)
    rebuilt = thaw_result(freeze_result(original, runtime), fresh)
    assert {str(m) for m in rebuilt} == {str(m) for m in original}
    assert rebuilt.count() == original.count()


@settings(max_examples=25, deadline=None)
@given(
    node=regex_nodes(),
    texts=st.lists(documents, min_size=1, max_size=4),
)
def test_batch_engines_agree_document_by_document(node, texts):
    spanner = Spanner.from_regex(node)
    collection = DocumentCollection.from_texts(texts)
    compiled = spanner.runtime()
    by_engine = {
        engine: {
            doc_id: (frozenset(str(m) for m in result), result.count())
            for doc_id, result in run_batch(compiled, collection, engine=engine)
        }
        for engine in ("compiled", "reference")
    }
    assert by_engine["compiled"] == by_engine["reference"]
