"""Property-based tests: every execution plan computes the same spanner.

Random sequential (possibly non-deterministic) eVAs are generated by
compiling random regex formulas to VA and converting with ``va_to_eva``.
On random documents, the following must produce identical mapping sets and
identical counts:

* the reference on-the-fly evaluator (:func:`evaluate_on_the_fly`),
* the compiled upfront-determinization path (``engine="compiled"``: dense
  tables plus the arena engine),
* the compiled on-the-fly subset runtime (``engine="compiled-otf"``), with
  one :class:`CompiledSubsetEVA` instance reused across all of an
  automaton's documents to also exercise the cross-document row cache.

This pins down the tentpole invariant of the ExecutionPlan layer: whatever
the planner picks, the answer is the same.
"""

from hypothesis import given, settings, strategies as st

from harness import assert_all_engines_agree

from repro import Spanner
from repro.automata.transforms import va_to_eva
from repro.enumeration.onthefly import evaluate_on_the_fly
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
from repro.regex.compiler import compile_to_va
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
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


documents = st.lists(
    st.text(alphabet=ALPHABET, min_size=0, max_size=5), min_size=1, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(node=regex_nodes(), texts=documents)
def test_all_plans_agree_on_random_sequential_evas(node, texts):
    extended = va_to_eva(compile_to_va(node, ALPHABET))
    if not extended.is_sequential():
        # The on-the-fly evaluators require sequentiality; the pipeline
        # engines handle the general case and are covered elsewhere.
        return
    spanner = Spanner.from_eva(extended)
    subset = CompiledSubsetEVA(extended)  # shared across this automaton's documents
    for text in texts:
        reference = evaluate_on_the_fly(extended, text)
        reference_set = {str(m) for m in reference}

        compiled_set = {str(m) for m in spanner.evaluate(text, engine="compiled")}
        assert compiled_set == reference_set
        assert spanner.count(text, engine="compiled") == reference.count()

        otf_set = {str(m) for m in spanner.evaluate(text, engine="compiled-otf")}
        assert otf_set == reference_set
        assert spanner.count(text, engine="compiled-otf") == reference.count()

        shared = evaluate_compiled_arena(subset, text)
        assert {str(m) for m in shared} == reference_set
        assert count_compiled(subset, text) == reference.count()


@settings(max_examples=40, deadline=None)
@given(
    node=regex_nodes(),
    text=st.text(alphabet=ALPHABET, min_size=0, max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_auto_plan_agrees_with_forced_engines(node, text, seed):
    # The shared harness compares the auto plan with every forced engine
    # (including counts) and the chunk-fed streaming evaluator in both
    # emit modes over adversarial chunkings of the same document.
    assert_all_engines_agree(node, text, seed=seed)
