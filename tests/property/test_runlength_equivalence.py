"""Property tests: the count loop's run powers are exactly Algorithm 3.

Generated spanners over run-heavy documents (uniform runs from 1 to
several times :data:`~repro.runtime.kernel.POWER_MIN` characters, empty
documents, foreign characters planted mid-run), on the compiled automaton
over the determinized and over the sequential eVA
(:data:`harness.AUTOMATON_FORMS`):

* **Counting** — the default count (repeats and powers through long
  runs) equals the ``fast_path=False`` count, which steps every
  character, equals the reference enumeration's cardinality.

* **Arenas** — the fast path never changes an arena: with the sprint
  on and off the arrays are identical (also through the shared harness
  helper, which re-runs the whole cross-engine matrix).
"""

from hypothesis import given, settings, strategies as st

from harness import (
    AUTOMATON_FORMS,
    adversarial_documents,
    assert_all_engines_agree,
    assert_arena_identical,
    automaton_form,
)

from repro import Spanner
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import POWER_MIN

#: Run-hostile regimes: capture state fanning out inside a run (a count
#: transfer that is neither a function nor idempotent), captures opened
#: and closed by run boundaries, run death on foreign characters, and
#: single-letter patterns whose every document is one or two giant runs.
PATTERNS = [
    ".*x{a+}.*",
    "x{a*}b*",
    ".*x{ab}y{b*}a.*",
    "x{a}b",
    ".*x{aé*b}.*",
    "a*x{b*}a*",
]

DOCUMENT_ALPHABET = "abé\x00"

#: Run-structured documents assembled from (char, length) pairs, with
#: lengths on both sides of ``POWER_MIN`` so the loop meets short runs
#: (repeats only), runs just past it and runs that take several powers.
run_documents = st.lists(
    st.tuples(
        st.sampled_from(DOCUMENT_ALPHABET),
        st.one_of(
            st.integers(min_value=1, max_value=POWER_MIN + 2),
            st.integers(min_value=2 * POWER_MIN, max_value=8 * POWER_MIN),
        ),
    ),
    max_size=5,
).map(lambda pairs: "".join(char * length for char, length in pairs))
patterns = st.sampled_from(PATTERNS)
forms = st.sampled_from(AUTOMATON_FORMS)


@settings(max_examples=80, deadline=None)
@given(pattern=patterns, text=run_documents, form=forms)
def test_count_equals_scalar_and_reference(pattern, text, form):
    spanner = Spanner.from_regex(pattern)
    runtime = automaton_form(spanner, form)
    expected = count_compiled(runtime, text, fast_path=False)
    assert count_compiled(runtime, text) == expected
    assert spanner.count(text, engine="reference") == expected


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, text=run_documents)
def test_arena_is_bit_identical_both_fast_paths(pattern, text):
    runtime = Spanner.from_regex(pattern).runtime(text)
    assert_arena_identical(
        evaluate_compiled_arena(runtime, text, fast_path=False),
        evaluate_compiled_arena(runtime, text),
        context=" (fast_path=False)",
    )


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, text=run_documents)
def test_subset_count_matches_dense_count(pattern, text):
    spanner = Spanner.from_regex(pattern)
    assert count_compiled(spanner.runtime(text), text) == count_compiled(
        automaton_form(spanner, "determinized"), text
    )


def test_adversarial_corpus_through_the_full_harness():
    """Every corpus document through the full cross-engine matrix —
    the harness counts each document stretched into long runs with and
    without the fast path, on both forms, against the reference."""
    for pattern in PATTERNS:
        spanner = Spanner.from_regex(pattern)
        for text in adversarial_documents(seed=23):
            assert_all_engines_agree(
                pattern, text, seed=23, streaming=False, spanner=spanner
            )
