"""Unit tests for the CompiledResultDag arena (repro.runtime.dag)."""

import pickle

import pytest

from repro.enumeration import dag as dag_module
from repro.enumeration.enumerate import delay_profile
from repro.enumeration.evaluate import evaluate
from repro.runtime.compiled import compile_eva
from repro.runtime.dag import CompiledResultDag
from repro.runtime.engine import (
    EvaluationScratch,
    count_compiled,
    evaluate_compiled_arena,
)
from repro.spanners.spanner import Spanner


def mappings_of(result):
    return {str(mapping) for mapping in result}


@pytest.fixture
def fig3_compiled(fig3_det):
    return compile_eva(fig3_det, check_determinism=False)


class TestArenaEngine:
    def test_matches_reference_engine(self, fig3_det, fig3_compiled, figure1_doc):
        reference = evaluate(fig3_det, figure1_doc, check_determinism=False)
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        assert mappings_of(arena) == mappings_of(reference)
        assert arena.count() == reference.count()
        assert arena.node_count() == reference.node_count()

    def test_empty_document_and_no_match(self, fig3_compiled):
        assert mappings_of(evaluate_compiled_arena(fig3_compiled, "")) == set()
        assert evaluate_compiled_arena(fig3_compiled, "✗✗✗").is_empty()

    def test_scratch_reuse_across_documents(self, fig3_compiled, fig3_det):
        scratch = EvaluationScratch(fig3_compiled)
        for document in ("John <j@g.be>", "", "a", "Jane <555-12>"):
            reference = evaluate(fig3_det, document, check_determinism=False)
            arena = evaluate_compiled_arena(fig3_compiled, document, scratch=scratch)
            assert mappings_of(arena) == mappings_of(reference)
            assert arena.count() == reference.count()

    def test_no_dag_nodes_materialized(self, monkeypatch):
        spanner = Spanner.from_regex("x{a*}a*")
        document = "a" * 8
        compiled = compile_eva(spanner.compiled(document), check_determinism=False)

        def forbidden(*args, **kwargs):
            raise AssertionError("the arena path must not build DagNode objects")

        monkeypatch.setattr(dag_module.DagNode, "__init__", forbidden)
        arena = evaluate_compiled_arena(compiled, document)
        assert arena.count() == 9
        assert len(list(arena)) == 9

    def test_delay_profile_accepts_arena(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        delays = delay_profile(arena)
        assert len(delays) == arena.count()


class TestIntegerCounting:
    def test_count_compiled_equals_dag_count(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        assert count_compiled(fig3_compiled, figure1_doc) == arena.count()

    def test_count_compiled_on_dead_documents(self, fig3_compiled):
        assert count_compiled(fig3_compiled, "") == 0
        assert count_compiled(fig3_compiled, "✗") == 0

    def test_count_with_node_sharing(self):
        spanner = Spanner.from_regex("x{a*}a*")
        document = "a" * 10
        compiled = compile_eva(spanner.compiled(document), check_determinism=False)
        assert count_compiled(compiled, document) == 11
        assert evaluate_compiled_arena(compiled, document).count() == 11


class TestConversions:
    def test_to_result_dag_is_lossless(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        legacy = arena.to_result_dag()
        assert mappings_of(legacy) == mappings_of(arena)
        assert legacy.count() == arena.count()
        assert legacy.node_count() == arena.node_count()

    def test_from_result_dag_is_lossless(self, fig3_det, fig3_compiled, figure1_doc):
        legacy = evaluate(fig3_det, figure1_doc, check_determinism=False)
        arena = CompiledResultDag.from_result_dag(legacy, fig3_compiled)
        assert mappings_of(arena) == mappings_of(legacy)
        assert arena.count() == legacy.count()

    def test_roundtrip_preserves_sharing(self):
        spanner = Spanner.from_regex("x{a*}a*")
        document = "a" * 8
        compiled = compile_eva(spanner.compiled(document), check_determinism=False)
        arena = evaluate_compiled_arena(compiled, document)
        back = CompiledResultDag.from_result_dag(arena.to_result_dag(), compiled)
        assert back.count() == arena.count()
        assert back.node_count() == arena.node_count()

    def test_portable_form_is_picklable_and_lossless(self, fig3_compiled, figure1_doc):
        arena = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        portable = arena.to_portable()
        assert pickle.loads(pickle.dumps(portable)) == portable
        rebuilt = CompiledResultDag.from_portable(portable, fig3_compiled)
        assert mappings_of(rebuilt) == mappings_of(arena)
        assert rebuilt.count() == arena.count()
