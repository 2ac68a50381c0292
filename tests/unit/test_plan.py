"""Unit tests for the ExecutionPlan layer: planner, subset runtime, LRU cache."""

import pytest

from repro.algebra.expressions import Atom
from repro.automata import transforms
from repro.automata.transforms import va_to_eva
from repro.core.documents import DocumentCollection
from repro.regex.compiler import compile_to_va
from repro.regex.parser import parse_regex
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.plan import (
    ENGINE_CHOICES,
    ExecutionPlan,
    choose_plan,
)
from repro.runtime.operators import FusedLeaf
from repro.runtime.subset import CompiledSubsetEVA
from repro.server.protocol import OpenRequest
from repro.server.service import SpannerService
from repro.spanners import pipeline as pipeline_module
from repro.spanners.spanner import Spanner
from repro.workloads.spanners import figure3_eva


def sequential_eva(pattern: str, alphabet: str = "ab"):
    return va_to_eva(compile_to_va(parse_regex(pattern), alphabet))


def blowup_pattern(k: int) -> str:
    """``.*a`` + k dots + ``x{b}.*``: k+7 sequential states, 2^(k+1)+5 subsets."""
    return ".*a" + "." * k + "x{b}.*"


#: The reason of the plan every non-hybrid source gets.
COMPILED_REASON = choose_plan(engine="auto").reason


class TestChoosePlan:
    def test_deterministic_input_compiles_upfront(self):
        plan = Spanner.from_eva(figure3_eva()).plan()
        assert plan.engine == "compiled"
        assert plan.reason == COMPILED_REASON

    def test_small_nondeterministic_input_determinizes_upfront(self):
        plan = Spanner.from_eva(sequential_eva("x{a*}a*")).plan()
        assert plan.engine == "compiled"

    def test_within_budget_blowup_family_compiles(self):
        # k=6: 133 subsets.
        plan = Spanner(blowup_pattern(6)).plan()
        assert plan.engine == "compiled"
        assert plan.reason == COMPILED_REASON

    def test_over_budget_blowup_family_goes_on_the_fly(self):
        # k=16: 23 sequential states but 131,077 subsets, none built up
        # front: the plan is the same, and the automaton holds only the
        # initial subset until a document reaches more.
        spanner = Spanner(blowup_pattern(16))
        assert spanner.plan() == Spanner(blowup_pattern(6)).plan()
        runtime = spanner.runtime()
        assert isinstance(runtime, CompiledSubsetEVA)
        assert runtime.num_subset_states == 1
        assert runtime.num_base_states == 23

    def test_reference_path_determinizes_past_the_budget(self):
        # The reference engine is the oracle: its subset construction is
        # unbounded (k=11: 2^12 + 5 subsets).
        spanner = Spanner(blowup_pattern(11))
        text = "ab" * 20 + "b"
        assert spanner._reference_automaton(text).num_states == 2**12 + 5
        assert spanner.count(text, engine="reference") == spanner.count(text)

    def test_forced_engines_skip_statistics(self):
        for engine in ("compiled", "reference"):
            plan = choose_plan(engine=engine)
            assert plan.engine == engine
            assert plan.reason == "forced by caller"

    def test_choose_plan_resolves_auto_to_the_compiled_plan(self):
        plan = choose_plan(engine="auto")
        assert plan.engine == "compiled"
        with pytest.raises(ValueError, match="expression optimizer"):
            choose_plan(engine="hybrid")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            choose_plan(engine="warp")

    def test_plan_must_be_concrete(self):
        with pytest.raises(ValueError):
            ExecutionPlan("auto", "nope")


class TestKernelAxis:
    """``kernel=`` is accepted and checked, and selects nothing."""

    KERNELS = ("auto", "scalar", "runlength")

    def test_unknown_kernel_rejected(self):
        spanner = Spanner.from_eva(figure3_eva())
        with pytest.raises(ValueError, match="kernel"):
            spanner.plan(kernel="warp")
        assert spanner.plan(kernel="runlength") == spanner.plan()

    def test_facade_kernel_choices_agree(self):
        spanner = Spanner.from_regex("x{a+}b")
        expected = spanner.count("aab", kernel="scalar")
        for kernel in self.KERNELS:
            assert spanner.count("aab", kernel=kernel) == expected
            assert (
                len(list(spanner.enumerate("aab", kernel=kernel))) == expected
            )
            assert spanner.plan("aab", kernel=kernel) == spanner.plan("aab")

    def test_facade_constructor_kernel_is_the_default(self):
        spanner = Spanner.from_regex("x{a+}b", kernel="runlength")
        assert spanner.kernel == "runlength"
        assert spanner.plan("aab", engine="compiled") == choose_plan(engine="compiled")
        assert spanner.count("aab") == spanner.count("aab", kernel="scalar")

    def test_facade_rejects_unknown_kernel(self):
        spanner = Spanner.from_regex("x{a}")
        with pytest.raises(ValueError):
            Spanner("x{a}", kernel="warp")
        with pytest.raises(ValueError):
            spanner.count("a", kernel="warp")


class TestSubsetRuntime:
    def test_nondeterministic_eva_without_upfront_determinize(self, monkeypatch):
        pattern = "(aa|a)*x{b}"
        automaton = sequential_eva(pattern)
        assert not automaton.is_deterministic()
        expected = {str(m) for m in automaton.evaluate("aab")}

        def forbidden(*args, **kwargs):
            raise AssertionError("no request path may determinize up front")

        for module in (transforms, pipeline_module):
            monkeypatch.setattr(module, "determinize", forbidden)
        subset = CompiledSubsetEVA(automaton)
        result = evaluate_compiled_arena(subset, "aab")
        assert {str(m) for m in result} == expected
        assert count_compiled(subset, "aab") == result.count()

        # Every request path of the default engine.
        spanner = Spanner(pattern)
        assert {str(m) for m in spanner.enumerate("aab")} == expected
        assert spanner.count("aab") == len(expected)
        assert len(spanner.extract("aab")) == len(expected)
        for emit in ("on_finish", "incremental"):
            stream = spanner.stream(emit=emit)
            fed = stream.feed("aa") + stream.feed("b")
            finished = {str(m) for m in stream.finish()}
            assert {str(m) for m in fed} <= finished == expected
        collection = DocumentCollection.from_texts(["aab", "b", "aaab"])
        batch = spanner.run_batch(collection)
        assert [result.count() for _, result in batch] == [1, 1, 1]
        leaf = FusedLeaf(Atom(parse_regex(pattern))).prepare(frozenset("ab"))
        assert {str(m) for m in leaf.execute("aab")} == expected
        entry = SpannerService()._build_entry(
            OpenRequest(pattern=pattern, alphabet=None, emit="incremental")
        )
        assert entry.variables == ("x",)

    def test_rows_cached_across_documents(self):
        subset = CompiledSubsetEVA(sequential_eva("(aa|a)*x{b}"))
        count_compiled(subset, "ababab")
        discovered = subset.num_subset_states
        count_compiled(subset, "bababa")
        # Same alphabet and shape: the second document reuses every row.
        assert subset.num_subset_states == discovered

    def test_only_reachable_subsets_are_interned(self):
        automaton = sequential_eva("x{a+}y{b+}")
        subset = CompiledSubsetEVA(automaton)
        evaluate_compiled_arena(subset, "ab")
        assert subset.num_subset_states <= 2 ** automaton.num_states

    def test_portable_keys_survive_different_interning_orders(self):
        automaton = sequential_eva("x{a*}a*")
        first = CompiledSubsetEVA(automaton)
        arena = evaluate_compiled_arena(first, "aaa")
        second = CompiledSubsetEVA(automaton)
        count_compiled(second, "a")  # warm with a different discovery order
        rebuilt = arena.from_portable(arena.to_portable(), second)
        assert {str(m) for m in rebuilt} == {str(m) for m in arena}
        assert rebuilt.count() == arena.count()


class TestSpannerPlanIntegration:
    def test_facade_engine_choices(self):
        spanner = Spanner.from_regex("x{a+}b")
        expected = set(spanner.evaluate("aab", engine="reference"))
        for engine in ENGINE_CHOICES:
            assert set(spanner.evaluate("aab", engine=engine)) == expected
            assert spanner.count("aab", engine=engine) == len(expected)

    def test_unknown_engine_rejected_everywhere(self):
        spanner = Spanner.from_regex("x{a}")
        with pytest.raises(ValueError):
            Spanner("x{a}", engine="warp")
        with pytest.raises(ValueError):
            spanner.evaluate("a", engine="warp")
        with pytest.raises(ValueError):
            spanner.count("a", engine="warp")

    def test_plan_exposed(self):
        spanner = Spanner.from_regex("x{a}b")
        plan = spanner.plan("ab")
        assert plan.engine == "compiled"
        forced = spanner.plan("ab", engine="reference")
        assert forced.engine == "reference"

    def test_facade_request_never_determinizes(self, monkeypatch):
        import repro.spanners.pipeline as pipeline_module

        spanner = Spanner.from_regex("(aa|a)*x{b}")
        for module in (transforms, pipeline_module):
            monkeypatch.setattr(
                module,
                "determinize",
                lambda *a, **k: pytest.fail("a request must not determinize"),
            )
        expected = {str(m) for m in sequential_eva("(aa|a)*x{b}").evaluate("aab")}
        assert {str(m) for m in spanner.enumerate("aab")} == expected
        assert spanner.count("aab") == len(expected)

    def test_run_batch_across_processes_matches_serial(self):
        # Subset ids are interned per process; the portable member-tuple
        # keys must still land results on the parent's runtime.
        spanner = Spanner.from_regex("(aa|a)*x{b}")
        collection = DocumentCollection.from_texts(["aab", "b", "aaab"])
        serial = {
            doc_id: (result.count(), {str(m) for m in result})
            for doc_id, result in spanner.run_batch(collection)
        }
        parallel = {
            doc_id: (result.count(), {str(m) for m in result})
            for doc_id, result in spanner.run_batch(
                collection, mode="processes", max_workers=2
            )
        }
        assert parallel == serial

    def test_run_batch_engine_runtime_mismatch_rejected(self):
        from repro.runtime.batch import run_batch

        spanner = Spanner.from_regex("(aa|a)*x{b}")
        leaf = FusedLeaf(Atom(parse_regex("(aa|a)*x{b}"))).prepare(frozenset("ab"))
        with pytest.raises(ValueError, match="CompiledSubsetEVA"):
            next(run_batch(leaf, ["ab"], engine="compiled"))
        with pytest.raises(ValueError, match="PhysicalOperator"):
            next(run_batch(spanner.runtime("ab"), ["ab"], engine="hybrid"))


class TestBoundedCache:
    def test_cache_holds_one_compilation(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        assert spanner.cache_stats().misses == 0
        for text in ("ab", "ac", "ad", "zz"):
            spanner.count(text)
        stats = spanner.cache_stats()
        assert (stats.misses, stats.entries, stats.max_entries) == (1, 1, 1)
        assert stats.evictions == 0

    def test_runtime_and_eva_survive_new_alphabets(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        first_runtime = spanner.runtime("ab")
        first_automaton = spanner.compiled("ab")
        spanner.count("az")
        assert spanner.runtime("ab") is first_runtime
        assert spanner.compiled("ab") is first_automaton

    def test_recently_used_entry_survives(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        kept = spanner.runtime("ab")
        spanner.count("ac")
        spanner.count("ab")
        spanner.count("ad")
        assert spanner.runtime("ab") is kept

    def test_knob_validation(self):
        with pytest.raises(TypeError):
            Spanner("x{a}", max_cached_alphabets=8)

    def test_cache_reused_for_same_alphabet(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        assert spanner.runtime("aba") is spanner.runtime("aab")
