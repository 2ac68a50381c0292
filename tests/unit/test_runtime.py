"""Unit tests for the compiled integer-indexed runtime (repro.runtime)."""

import pickle

import pytest

from repro.core.documents import OTHER
from repro.core.errors import CompilationError, NotDeterministicError
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet, open_
from repro.automata.transforms import to_deterministic_sequential_eva
from repro.enumeration.evaluate import evaluate
from repro.runtime.batch import freeze_result, thaw_result
from repro.runtime.compiled import NO_TARGET, CompiledEVA, compile_eva
from repro.runtime.engine import evaluate_compiled_arena
from repro.runtime.kernel import set_table
from repro.spanners.spanner import Spanner


def mappings_of(result):
    return {str(mapping) for mapping in result}


@pytest.fixture
def fig3_compiled(fig3_det):
    return compile_eva(fig3_det, check_determinism=False)


class TestCompileEVA:
    def test_states_are_interned_contiguously(self, fig3_det, fig3_compiled):
        assert fig3_compiled.num_states == fig3_det.num_states
        assert set(fig3_compiled.state_index.values()) == set(
            range(fig3_compiled.num_states)
        )

    def test_initial_state_is_id_zero(self, fig3_det, fig3_compiled):
        assert fig3_compiled.initial == 0
        assert fig3_compiled.state_objects[0] == fig3_det.initial

    def test_letter_table_matches_source(self, fig3_det, fig3_compiled):
        for state in fig3_det.states:
            state_id = fig3_compiled.state_index[state]
            row = fig3_compiled.letter_table[state_id]
            for symbol, target in fig3_det.letter_transitions_from(state):
                symbol_id = fig3_compiled.symbol_index[symbol]
                assert row[symbol_id] == fig3_compiled.state_index[target]

    def test_variable_table_matches_source(self, fig3_det, fig3_compiled):
        for state in fig3_det.states:
            state_id = fig3_compiled.state_index[state]
            expected = {
                (marker_set, fig3_compiled.state_index[target])
                for marker_set, target in fig3_det.variable_transitions_from(state)
            }
            actual = {
                (fig3_compiled.marker_sets[set_id], target)
                for set_id, target in fig3_compiled.variable_table[state_id]
            }
            assert actual == expected

    def test_final_ids_match(self, fig3_det, fig3_compiled):
        finals = {fig3_compiled.state_objects[i] for i in fig3_compiled.final_ids}
        assert finals == set(fig3_det.finals)
        assert all(fig3_compiled.is_final[i] for i in fig3_compiled.final_ids)

    def test_encode_text_marks_foreign_characters(self, fig3_compiled):
        encoded = fig3_compiled.encode_text("a✗")
        assert encoded[1] == NO_TARGET
        assert encoded[0] == fig3_compiled.symbol_index["a"]

    def test_encode_text_reads_unnamed_characters_as_other(self):
        spanner = Spanner("x{[^é]}.*")
        for runtime in (spanner.runtime(), spanner.otf_runtime()):
            index = runtime.symbol_index
            assert runtime.encode_text("aé✗") == [index[OTHER], index["é"], index[OTHER]]

    def test_rejects_missing_initial(self):
        automaton = ExtendedVA()
        automaton.add_state("q")
        with pytest.raises(CompilationError):
            compile_eva(automaton)

    def test_rejects_non_deterministic(self):
        automaton = ExtendedVA()
        automaton.set_initial("q0")
        automaton.add_final("q1")
        automaton.add_letter_transition("q0", "a", "q1")
        automaton.add_letter_transition("q0", "a", "q0")
        with pytest.raises(NotDeterministicError):
            compile_eva(automaton)

    def test_pickle_roundtrip(self, fig3_compiled):
        clone = pickle.loads(pickle.dumps(fig3_compiled))
        assert isinstance(clone, CompiledEVA)
        assert clone.letter_table == fig3_compiled.letter_table
        assert clone.variable_table == fig3_compiled.variable_table
        assert clone.state_index == fig3_compiled.state_index


class TestEvaluateCompiled:
    DOCUMENT = "John <j@g.be>, Jane <555-12>"

    def test_matches_reference_engine(self, fig3_det, fig3_compiled, figure1_doc):
        reference = evaluate(fig3_det, figure1_doc, check_determinism=False)
        compiled = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        assert mappings_of(compiled) == mappings_of(reference)
        assert compiled.count() == reference.count()

    def test_empty_document(self, fig3_compiled, fig3_det):
        reference = evaluate(fig3_det, "", check_determinism=False)
        compiled = evaluate_compiled_arena(fig3_compiled, "")
        assert mappings_of(compiled) == mappings_of(reference)

    def test_foreign_characters_kill_all_runs(self, fig3_compiled):
        assert evaluate_compiled_arena(fig3_compiled, "✗✗✗").is_empty()

    def test_one_automaton_serves_many_documents(self, fig3_compiled, fig3_det):
        for _round in range(2):
            for document in (self.DOCUMENT, "", "Ada <a@g.be>", "no match"):
                reference = evaluate(fig3_det, document, check_determinism=False)
                compiled = evaluate_compiled_arena(fig3_compiled, document)
                assert mappings_of(compiled) == mappings_of(reference)
        # The set plans live on the automaton and are never pickled.
        assert set_table(fig3_compiled).records
        assert pickle.loads(pickle.dumps(fig3_compiled))._set_table is None

    def test_result_keyed_by_source_states(self, fig3_compiled, figure1_doc):
        result = evaluate_compiled_arena(fig3_compiled, figure1_doc).to_result_dag()
        assert set(result.final_lists) <= set(fig3_compiled.source.finals)


class TestFreezeThaw:
    def test_roundtrip_preserves_mappings_and_count(self, fig3_det, fig3_compiled, figure1_doc):
        original = evaluate_compiled_arena(fig3_compiled, figure1_doc)
        portable = freeze_result(original, fig3_compiled)
        rebuilt = thaw_result(portable, fig3_compiled)
        assert mappings_of(rebuilt) == mappings_of(original)
        assert rebuilt.count() == original.count()
        assert rebuilt.document_length == original.document_length

    def test_portable_form_is_picklable(self, fig3_compiled, figure1_doc):
        portable = freeze_result(
            evaluate_compiled_arena(fig3_compiled, figure1_doc), fig3_compiled
        )
        assert pickle.loads(pickle.dumps(portable)) == portable

    def test_node_sharing_preserved(self):
        # a* with a captured prefix produces a DAG with shared suffixes; the
        # rebuilt DAG must preserve sharing or the path count would change.
        spanner = Spanner.from_regex("x{a*}a*")
        document = "a" * 8
        compiled = compile_eva(spanner.compiled(document), check_determinism=False)
        original = evaluate_compiled_arena(compiled, document)
        rebuilt = thaw_result(freeze_result(original, compiled), compiled)
        assert rebuilt.count() == original.count()
        assert rebuilt.node_count() == original.node_count()


class TestEvaCaches:
    def test_target_caches_invalidated_on_mutation(self):
        automaton = ExtendedVA()
        automaton.set_initial("q0")
        automaton.add_letter_transition("q0", "a", "q1")
        assert automaton.letter_targets("q0", "a") == frozenset({"q1"})
        automaton.add_letter_transition("q0", "a", "q2")
        assert automaton.letter_targets("q0", "a") == frozenset({"q1", "q2"})
        marker_set = MarkerSet([open_("x")])
        automaton.add_variable_transition("q0", marker_set, "q1")
        assert automaton.variable_targets("q0", marker_set) == frozenset({"q1"})
        automaton.add_variable_transition("q0", marker_set, "q2")
        assert automaton.variable_targets("q0", marker_set) == frozenset({"q1", "q2"})

    def test_result_dag_final_lists_is_read_only_view(self, fig3_det, figure1_doc):
        result = evaluate(fig3_det, figure1_doc, check_determinism=False)
        view = result.final_lists
        assert view is result.final_lists  # no per-access copy
        with pytest.raises(TypeError):
            view["new"] = None


def test_deterministic_pipeline_output_compiles(contact_regex, figure1_doc):
    automaton = Spanner.from_regex(contact_regex).compiled(figure1_doc)
    compiled = compile_eva(automaton)
    assert compiled.num_states == automaton.num_states
    determinized = to_deterministic_sequential_eva(automaton, assume_sequential=True)
    assert determinized.num_states >= 1


def test_pipeline_compile_runtime_records_intern_stage(contact_regex):
    from repro.spanners.pipeline import CompilationPipeline

    pipeline = CompilationPipeline(contact_regex, alphabet="John <j@g.be>")
    compiled, report = pipeline.compile_runtime()
    assert isinstance(compiled, CompiledEVA)
    assert report.stages[-1].name == "intern"
    assert compiled.num_states == report.stages[-1].num_states
