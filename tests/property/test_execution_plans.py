"""Property-based tests: every execution plan computes the same spanner.

Random sequential (possibly non-deterministic) eVAs are generated by
compiling random regex formulas to VA and converting with ``va_to_eva``.
On random documents, the following must produce identical mapping sets and
identical counts:

* the reference on-the-fly evaluator (:func:`evaluate_on_the_fly`),
* the compiled engine (``engine="compiled"``: the lazily determinized
  automaton plus the arena engine),
* one :class:`CompiledSubsetEVA` instance reused across all of an
  automaton's documents, to also exercise the cross-document row cache.

This pins down the tentpole invariant of the ExecutionPlan layer: whatever
the planner picks, the answer is the same.  The blow-up family
``.*a`` + k dots + ``x{b}.*`` (2^(k+1)+5 subsets) checks it where an
up-front determinization would build thousands of subsets; no route,
streaming included, refuses such a pattern.
"""

import random

from hypothesis import given, settings, strategies as st

from harness import adversarial_chunkings, assert_all_engines_agree, assert_arena_identical

from repro import Spanner
from repro.cli import main
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


def blowup_pattern(k: int) -> str:
    """k+7 sequential states, 2^(k+1)+5 subsets."""
    return ".*a" + "." * k + "x{b}.*"


def blowup_texts(seed: int = 5) -> list[str]:
    rng = random.Random(seed)
    texts = ["", "ab" * 10, "a" + "b" * 30]
    texts += ["".join(rng.choice("ab") for _ in range(40)) for _ in range(3)]
    texts.append("a" * 20 + "éb" * 10)
    return texts


def test_within_budget_family_agrees_on_every_route():
    # k=6: 133 subsets.
    spanner = Spanner(blowup_pattern(6))
    assert spanner.plan().engine == "compiled"
    for seed, text in enumerate(blowup_texts()):
        assert_all_engines_agree(None, text, seed=seed, spanner=spanner)


def test_over_budget_family_agrees_without_dense_tables():
    # k=12: 8,197 subsets, of which only those the texts reach are built.
    spanner = Spanner(blowup_pattern(12))
    assert spanner.plan().engine == "compiled"
    for text in blowup_texts():
        expected = {str(m) for m in spanner.evaluate(text, engine="reference")}
        assert expected or len(text) < 14
        assert {str(m) for m in spanner.evaluate(text)} == expected
        for engine in (None, "reference"):
            assert spanner.count(text, engine=engine) == len(expected)


#: A 37-letter alphabet: every character but the space matches ``[a-z0-9]``.
WIDE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "


def wide_pattern(k: int) -> str:
    return ".*[a-z0-9]" + "." * k + "x{b}.*"


class TestLargeSubsetConstructions:
    """Patterns an up-front determinization would blow up on run on
    every route, streaming and the CLI included."""

    def test_k64_stream_builds_the_whole_document_arena(self):
        spanner = Spanner(wide_pattern(64))
        rng = random.Random(64)
        text = "".join(rng.choice(WIDE_ALPHABET) for _ in range(300)) + "b" * 70
        whole = spanner.preprocess(text)
        # The reference engine would determinize 2^65 subsets up front;
        # the reference on-the-fly evaluator is the oracle here.
        oracle = evaluate_on_the_fly(spanner.runtime().source, text)
        assert {str(m) for m in whole} == {str(m) for m in oracle}
        assert whole.count() == oracle.count() > 0
        for label, chunks in adversarial_chunkings(text, seed=64):
            stream = spanner.stream()
            for chunk in chunks:
                stream.feed(chunk)
            assert_arena_identical(stream.finish(), whole, context=f" ({label})")

    def test_k16_streams_incrementally(self):
        spanner = Spanner(blowup_pattern(16))
        text = "ab" * 20
        expected = {str(m) for m in evaluate_on_the_fly(spanner.runtime().source, text)}
        stream = spanner.stream(emit="incremental")
        fed = stream.feed(text[:17]) + stream.feed(text[17:])
        assert {str(m) for m in fed} <= {str(m) for m in stream.finish()} == expected

    def test_cli_count_with_compiled_engine(self, tmp_path, capsys):
        pattern = blowup_pattern(16)
        path = tmp_path / "doc.txt"
        path.write_text("ab" * 20)
        expected = evaluate_on_the_fly(Spanner(pattern).runtime().source, "ab" * 20).count()
        for options in (["--engine", "compiled"], []):
            assert main(["count", pattern, str(path), *options]) == 0
            assert capsys.readouterr().out.strip() == str(expected)
