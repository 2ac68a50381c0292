"""Unit tests for the cost-based optimizer and its facade/CLI integration."""

import pytest

from repro.core.errors import CompilationError
from repro.algebra.compile import evaluate_expression_setwise
from repro.algebra.expressions import Atom, Join, Projection, UnionExpr
from repro.algebra.optimizer import optimize, provably_functional
from repro.algebra.logical import logical_from_expression
from repro.runtime.operators import ArenaProject, FusedLeaf, HashJoin, MergeUnion
from repro.runtime.plan import ExecutionPlan
from repro.spanners.spanner import Spanner
from repro.workloads.spanners import join_heavy_expression

ALPHABET = frozenset("ab")


def functional_join():
    return Join(Atom("x{a+}b*"), Atom("x{a+}y{b*}"))


class TestCutDecisions:
    def test_small_join_fuses(self):
        plan = optimize(functional_join(), ALPHABET, join_fuse_threshold=10_000)
        assert not plan.is_hybrid
        assert isinstance(plan.physical, FusedLeaf)

    def test_large_join_cuts(self):
        plan = optimize(functional_join(), ALPHABET, join_fuse_threshold=0)
        assert plan.is_hybrid
        assert isinstance(plan.physical, HashJoin)
        assert all(isinstance(leaf, FusedLeaf) for leaf in plan.physical.children())

    def test_union_cuts_above_threshold(self):
        expression = UnionExpr(Atom("x{a}"), Atom("x{b}"))
        plan = optimize(expression, ALPHABET, union_fuse_threshold=0)
        assert isinstance(plan.physical, MergeUnion)

    def test_projection_over_cut_child_becomes_arena_project(self):
        expression = Projection(functional_join(), ["y"])
        plan = optimize(expression, ALPHABET, join_fuse_threshold=0)
        assert isinstance(plan.physical, ArenaProject)

    def test_operand_of_cut_parent_stays_fused_subtree(self):
        # The inner join is small enough to fuse; the outer join exceeds the
        # threshold, so exactly one cut happens, between the two.
        inner = functional_join()
        expression = Join(inner, Atom("x{a+}"))
        plan = optimize(expression, ALPHABET, join_fuse_threshold=40)
        if plan.is_hybrid:
            kinds = {type(child) for child in plan.physical.children()}
            assert kinds == {FusedLeaf}

    def test_default_join_heavy_expression_is_cut(self):
        plan = optimize(join_heavy_expression(), ALPHABET)
        assert plan.is_hybrid
        assert isinstance(plan.physical, HashJoin)
        assert len(plan.physical.children()) == 4


class TestFunctionalValidation:
    def test_non_functional_join_operand_raises(self):
        # y{b}? is not functional: some accepting runs do not assign y.
        expression = Join(Atom("x{a+}"), Atom("x{a+}(y{b})?"))
        with pytest.raises(CompilationError, match="not functional"):
            optimize(expression, ALPHABET)

    def test_unchecked_escape_hatch(self):
        expression = Join(Atom("x{a+}"), Atom("x{a+}(y{b})?"))
        plan = optimize(expression, ALPHABET, unchecked=True)
        assert plan.physical is not None

    def test_atoms_outside_joins_are_not_checked(self):
        # A non-functional atom in a plain union must not raise.
        expression = UnionExpr(Atom("x{a}(y{b})?"), Atom("x{b}(y{a})?"))
        plan = optimize(expression, ALPHABET)
        assert plan.physical is not None

    def test_structural_guard_survives_unchecked(self):
        # unchecked=True skips the per-atom is_functional computation, but
        # the free structural guard must stay: fusing a join over a union
        # with mismatched branch variables is wrong regardless of atoms.
        expression = Join(
            Atom("x{a}b"), UnionExpr(Atom("x{a}b"), Atom("(a)y{b}"))
        )
        plan = optimize(
            expression, ALPHABET, unchecked=True, join_fuse_threshold=10_000
        )
        assert plan.is_hybrid
        plan.physical.prepare(ALPHABET)
        got = set(plan.physical.execute("ab"))
        assert got == evaluate_expression_setwise(expression, "ab", ALPHABET)

    def test_union_with_mismatched_variables_forces_cut(self):
        # Both atoms are functional, but the union is not provably
        # functional (branches produce different variable sets), so a
        # fused join over it would be unsound: the optimizer must cut.
        union = UnionExpr(Atom("x{a}y{b}"), Atom("x{b}"))
        expression = Join(union, Atom("x{.}"))
        plan = optimize(expression, ALPHABET, join_fuse_threshold=10_000)
        assert plan.is_hybrid
        assert isinstance(plan.physical, HashJoin)

    def test_provably_functional_structure_rules(self):
        functional = {True: lambda atom: True, False: lambda atom: False}
        same_vars = logical_from_expression(UnionExpr(Atom("x{a}"), Atom("x{b}")))
        assert provably_functional(same_vars, functional[True])
        assert not provably_functional(same_vars, functional[False])
        mixed_vars = logical_from_expression(UnionExpr(Atom("x{a}"), Atom("y{b}")))
        assert not provably_functional(mixed_vars, functional[True])


class TestExplain:
    def test_optimized_plan_explain_sections(self):
        plan = optimize(join_heavy_expression(), ALPHABET)
        text = plan.explain()
        assert "logical plan:" in text
        assert "physical plan:" in text
        assert "rewrites applied:" in text
        assert "est" in text  # size annotations on the optimized tree

    def test_facade_explain_renders_both_trees_and_plan(self):
        spanner = Spanner.from_expression(join_heavy_expression())
        text = spanner.explain("abab")
        assert "logical plan:" in text
        assert "physical plan:" in text
        assert "execution plan: engine=hybrid" in text
        assert "hash-join" in text

    def test_facade_explain_works_for_regex_sources(self):
        text = Spanner.from_regex("x{a+}b").explain("ab")
        assert "execution plan: engine=" in text
        assert "atom[" in text


class TestPlanIntegration:
    def test_hybrid_plan_requires_operators(self):
        with pytest.raises(ValueError):
            ExecutionPlan("hybrid", "no tree")
        with pytest.raises(ValueError):
            ExecutionPlan("compiled", "tree on wrong engine", operators=object())

    def test_facade_engines_agree_on_hybrid_expression(self):
        expression = join_heavy_expression((3, 5))
        spanner = Spanner.from_expression(expression)
        document = "ab" * 20
        expected = evaluate_expression_setwise(expression, document)
        for engine in ("auto", "hybrid", "compiled", "compiled-otf"):
            assert set(spanner.evaluate(document, engine=engine)) == expected
            assert spanner.count(document, engine=engine) == len(expected)

    def test_hybrid_engine_on_regex_source_degrades_to_auto(self):
        spanner = Spanner.from_regex("x{a+}b")
        assert set(spanner.evaluate("aab", engine="hybrid")) == set(
            spanner.evaluate("aab", engine="compiled")
        )

    def test_spanner_unchecked_flag_reaches_optimizer(self):
        expression = Join(Atom("x{a+}"), Atom("x{a+}(y{b})?"))
        with pytest.raises(CompilationError, match="not functional"):
            Spanner.from_expression(expression).evaluate("aab")
        relaxed = Spanner.from_expression(expression, unchecked=True)
        assert relaxed.evaluate("aab") is not None

    def test_optimized_plan_cached_once(self):
        spanner = Spanner.from_expression(join_heavy_expression((3, 5)))
        spanner.evaluate("ab")
        first = spanner._optimized
        spanner.evaluate("bz")
        assert spanner._optimized is first
        assert spanner.cache_stats().misses == 1

    def test_run_batch_hybrid_across_processes(self):
        expression = join_heavy_expression((3, 5))
        spanner = Spanner.from_expression(expression)
        documents = ["ab" * 15, "ba" * 15, "a" * 30]
        serial = {
            doc_id: set(map(str, result))
            for doc_id, result in spanner.run_batch(documents)
        }
        parallel = {
            doc_id: set(map(str, result))
            for doc_id, result in spanner.run_batch(
                documents, mode="processes", max_workers=2
            )
        }
        assert parallel == serial
