"""Property tests: the run-length kernel is exactly the scalar engine.

Two families of guarantees over generated spanners and adversarial
documents (run length 1, empty documents, single-class alphabets, foreign
characters planted mid-run):

* **Counting** — :func:`count_runlength` equals the scalar
  :func:`count_compiled` equals the reference enumeration's cardinality,
  and the numpy ``int64`` run path (when numpy is importable) is
  bit-equal to the arbitrary-precision Python rows.

* **Arenas** — the ``kernel`` axis never reaches an arena: the facade's
  arena under every ``kernel=`` value is array-for-array the scalar
  arena with the sprint both on and off (also through the shared harness
  helper, which re-runs the whole cross-engine matrix).

The C-level run count that decides ``kernel="auto"`` is pinned to the
length of the run-length view on generated buffers of both flavours.
"""

from array import array

from hypothesis import given, settings, strategies as st

from harness import (
    adversarial_documents,
    assert_all_engines_agree,
    assert_arena_identical,
)

from repro import Spanner
from repro.runtime.encoding import run_count, runs_of_buffer
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.kernel import KERNELS
from repro.runtime.runlength import (
    count_runlength,
    count_subset_runlength,
    numpy_available,
)

#: Run-length-hostile regimes: capture state fanning out inside a run
#: (the `general` count kind), captures opened and closed by run
#: boundaries, run death on foreign characters, and single-letter
#: patterns whose every document is one or two giant runs.
PATTERNS = [
    ".*x{a+}.*",
    "x{a*}b*",
    ".*x{ab}y{b*}a.*",
    "x{a}b",
    ".*x{aé*b}.*",
    "a*x{b*}a*",
]

DOCUMENT_ALPHABET = "abé\x00"

#: Biased toward long runs: plain text plus run-structured documents
#: assembled from (char, length) pairs, so generated documents actually
#: exercise multi-step jumps instead of degenerating to run length 1.
run_documents = st.lists(
    st.tuples(
        st.sampled_from(DOCUMENT_ALPHABET),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=6,
).map(lambda pairs: "".join(char * length for char, length in pairs))
documents = st.one_of(st.text(alphabet=DOCUMENT_ALPHABET, max_size=24), run_documents)
patterns = st.sampled_from(PATTERNS)


#: Class-id sequences over six ids, half of them as long runs.
id_sequences = st.one_of(
    st.lists(st.integers(min_value=0, max_value=5), max_size=40),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=1, max_value=12),
        ),
        max_size=6,
    ).map(lambda pairs: [cls for cls, length in pairs for _ in range(length)]),
)
#: Wide ids (``array('I')`` buffers exist only above 255 classes) that
#: pairwise differ in a single byte.
WIDE_IDS = (0, 1, 256, 257, 65536, 2**32 - 1)


def _runtime(pattern: str, text: str):
    spanner = Spanner.from_regex(pattern)
    return spanner._runtime_for_key(spanner._alphabet_key(text))


@settings(max_examples=60, deadline=None)
@given(pattern=patterns, text=documents)
def test_count_equals_scalar_and_reference(pattern, text):
    runtime = _runtime(pattern, text)
    spanner = Spanner.from_regex(pattern)
    expected = count_compiled(runtime, text)
    assert count_runlength(runtime, text) == expected
    assert count_runlength(runtime, text, use_numpy=False) == expected
    assert len(list(spanner.evaluate(text, engine="reference"))) == expected


@settings(max_examples=60, deadline=None)
@given(pattern=patterns, text=documents)
def test_numpy_path_is_bit_equal_to_python_rows(pattern, text):
    if not numpy_available():
        return
    runtime = _runtime(pattern, text)
    assert count_runlength(runtime, text, use_numpy=True) == count_runlength(
        runtime, text, use_numpy=False
    )


@settings(max_examples=60, deadline=None)
@given(pattern=patterns, text=documents)
def test_arena_is_bit_identical_both_fast_paths(pattern, text):
    spanner = Spanner.from_regex(pattern)
    runtime = spanner._runtime_for_key(spanner._alphabet_key(text))
    serial = evaluate_compiled_arena(runtime, text)
    assert_arena_identical(
        evaluate_compiled_arena(runtime, text, fast_path=False),
        serial,
        context=" (fast_path=False)",
    )
    for kernel in KERNELS:
        assert_arena_identical(
            spanner.preprocess(text, kernel=kernel),
            serial,
            context=f" (kernel={kernel!r})",
        )


@settings(max_examples=100, deadline=None)
@given(ids=id_sequences, data=st.data())
def test_run_count_equals_the_run_view_on_both_buffer_flavours(ids, data):
    lo = data.draw(st.integers(min_value=0, max_value=len(ids)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(ids)))
    for buffer in (bytes(ids), array("I", [WIDE_IDS[cls] for cls in ids])):
        # The whole buffer, and a slice as the segment memo cuts one.
        for piece in (buffer, buffer[lo:hi]):
            assert run_count(piece) == len(runs_of_buffer(piece))


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, text=documents)
def test_subset_count_matches_dense_count(pattern, text):
    spanner = Spanner.from_regex(pattern)
    subset = spanner._otf_runtime_for_key(spanner._alphabet_key(text))
    runtime = spanner._runtime_for_key(spanner._alphabet_key(text))
    assert count_subset_runlength(subset, text) == count_compiled(
        runtime, text
    )


def test_adversarial_corpus_through_the_full_harness():
    """Every corpus document through the full cross-engine matrix —
    the harness's run-length pass pins counts, and the kernel-free arena,
    against every other engine on the same automaton."""
    for pattern in PATTERNS:
        spanner = Spanner.from_regex(pattern)
        for text in adversarial_documents(seed=23):
            assert_all_engines_agree(
                pattern, text, seed=23, streaming=False, spanner=spanner
            )
