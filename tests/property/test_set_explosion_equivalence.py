"""Property-based tests: patterns whose active sets explode, and
patterns that capture at most positions.

Under ``.*x{a[ab]{k}}.*`` every ``a`` of the last ``k + 1`` characters
opens a live capture, so random ``ab`` text meets a new set of live
states at most positions: the kernel loops build plans for sets they
may never meet again and, past their plan allowance, finish in the
state-indexed loop.  Whichever route a position takes, the arena must be
the same array for array — whole document, with plans forbidden, and fed
in random chunks — and mappings and counts must equal the reference
engine.  The ``.*a.{12}x{b}.*`` family passes the subset budget, so it
runs lazily determinized (``compiled-otf``).

The contact pattern and ``.*n{[a-z]+} <.*`` open and close captures
that the next letter mostly kills.  Both loop forms leave those
captures out by looking one letter ahead, so the same three routes pin
that lookahead in plans, in the state loop and at chunk boundaries.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro import Spanner
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.streaming import StreamingEvaluator
from repro.workloads.spanners import contact_pattern

from harness import assert_arena_identical, plans_forbidden

texts = st.text(alphabet="ab", min_size=0, max_size=160)


@lru_cache(maxsize=None)
def spanner_for(pattern: str) -> Spanner:
    return Spanner(pattern)


def reference(spanner: Spanner, text: str) -> tuple[set[str], int]:
    dag = spanner.preprocess(text, engine="reference")
    return {str(mapping) for mapping in dag}, dag.count()


def chunks_of(text: str, cuts: list[int]) -> list[str]:
    bounds = sorted({0, len(text), *(cut % (len(text) + 1) for cut in cuts)})
    return [text[begin:end] for begin, end in zip(bounds, bounds[1:])]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=4, max_value=10),
    text=texts,
    cuts=st.lists(st.integers(min_value=0, max_value=160), max_size=6),
)
def test_exploding_sets_match_the_reference(k, text, cuts):
    spanner = spanner_for(".*x{a" + "[ab]" * k + "}.*")
    mappings, count = reference(spanner, text)
    runtime = spanner.runtime(text)
    whole = evaluate_compiled_arena(runtime, text)
    assert {str(mapping) for mapping in whole} == mappings
    assert whole.count() == count_compiled(runtime, text) == count
    with plans_forbidden(runtime, len(text)):
        assert_arena_identical(evaluate_compiled_arena(runtime, text), whole)
        assert count_compiled(runtime, text) == count
    stream = StreamingEvaluator(runtime)
    for chunk in chunks_of(text, cuts):
        stream.feed(chunk)
    assert_arena_identical(stream.finish(), whole, context=f" (chunks at {cuts})")
    otf = spanner.runtime(text)
    assert {str(mapping) for mapping in evaluate_compiled_arena(otf, text)} == mappings
    assert count_compiled(otf, text) == count


@settings(max_examples=15, deadline=None)
@given(text=st.text(alphabet="ab", min_size=0, max_size=60))
def test_subset_budget_family_matches_the_reference(text):
    spanner = spanner_for(".*a" + "." * 12 + "x{b}.*")
    mappings, count = reference(spanner, text)
    assert {str(m) for m in spanner.evaluate(text, engine="compiled-otf")} == mappings
    assert spanner.count(text, engine="compiled-otf") == count
    runtime = spanner.runtime(text)
    whole = evaluate_compiled_arena(runtime, text)
    with plans_forbidden(runtime, len(text)):
        assert_arena_identical(evaluate_compiled_arena(runtime, text), whole)
        assert count_compiled(runtime, text) == count


#: Contact-record pieces, so random joins open and close many captures.
contact_texts = st.lists(
    st.sampled_from(["Jan", "e", "x", " <", ">", ", ", "j@g.be", "55-12", "@", "-", " "]),
    max_size=30,
).map("".join)


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.sampled_from([contact_pattern(), ".*n{[a-z]+} <.*"]),
    text=contact_texts,
    cuts=st.lists(st.integers(min_value=0, max_value=160), max_size=6),
)
def test_capture_heavy_arenas_agree_in_every_loop_form(pattern, text, cuts):
    spanner = spanner_for(pattern)
    mappings, count = reference(spanner, text)
    runtime = spanner.runtime(text)
    whole = evaluate_compiled_arena(runtime, text)
    assert {str(mapping) for mapping in whole} == mappings
    assert whole.count() == count_compiled(runtime, text) == count
    with plans_forbidden(runtime, len(text)):
        assert_arena_identical(evaluate_compiled_arena(runtime, text), whole)
        assert count_compiled(runtime, text) == count
    stream = StreamingEvaluator(runtime)
    for chunk in chunks_of(text, cuts):
        stream.feed(chunk)
    assert_arena_identical(stream.finish(), whole, context=f" (chunks at {cuts})")
