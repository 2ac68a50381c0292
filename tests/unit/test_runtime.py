"""Unit tests for the compiled integer-indexed runtime (repro.runtime)."""

import pickle

import pytest

from repro.core.errors import CompilationError
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet, open_
from repro.automata.transforms import to_deterministic_sequential_eva
from repro.enumeration.evaluate import evaluate
from repro.runtime.batch import freeze_result, thaw_result
from repro.runtime.engine import evaluate_compiled_arena
from repro.runtime.kernel import set_table
from repro.runtime.subset import CompiledSubsetEVA
from repro.spanners.spanner import Spanner


def mappings_of(result):
    return {str(mapping) for mapping in result}


@pytest.fixture
def fig3_compiled(fig3_det):
    return CompiledSubsetEVA(fig3_det)


def singleton_id(compiled, state):
    """The subset id of one state of a deterministic source."""
    return compiled.state_id(frozenset({state}))


class TestCompileEVA:
    """Interning an eVA into the runtime's integer tables.

    Over a deterministic source every subset the lazy automaton builds
    is a singleton, so its tables are the source's transitions.
    """

    def test_states_are_interned_contiguously(self, fig3_compiled, figure1_doc):
        evaluate_compiled_arena(fig3_compiled, figure1_doc)
        ids = [fig3_compiled.state_id(subset) for subset in fig3_compiled.state_objects]
        assert ids == list(range(fig3_compiled.num_states))

    def test_initial_state_is_id_zero(self, fig3_det, fig3_compiled):
        assert fig3_compiled.initial == 0
        assert fig3_compiled.state_objects[0] == frozenset({fig3_det.initial})

    def test_letter_table_matches_source(self, fig3_det, fig3_compiled):
        class_of = fig3_compiled.classing.class_of
        for state in fig3_det.states:
            row = fig3_compiled.class_table[singleton_id(fig3_compiled, state)]
            for symbol, target in fig3_det.letter_transitions_from(state):
                symbol_class = class_of[fig3_compiled.symbol_index[symbol]]
                assert row[symbol_class] == singleton_id(fig3_compiled, target)

    def test_variable_table_matches_source(self, fig3_det, fig3_compiled):
        for state in fig3_det.states:
            state_id = singleton_id(fig3_compiled, state)
            expected = {
                (marker_set, singleton_id(fig3_compiled, target))
                for marker_set, target in fig3_det.variable_transitions_from(state)
            }
            actual = {
                (fig3_compiled.marker_sets[set_id], target)
                for set_id, target in fig3_compiled.variable_table[state_id]
            }
            assert actual == expected

    def test_final_ids_match(self, fig3_det, fig3_compiled):
        for state in fig3_det.states:
            singleton_id(fig3_compiled, state)
        finals = {
            subset
            for subset, final in zip(fig3_compiled.state_objects, fig3_compiled.is_final)
            if final
        }
        assert finals == {frozenset({state}) for state in fig3_det.finals}

    def test_encode_text_marks_foreign_characters(self, fig3_compiled):
        # fig3 reads no OTHER: an unnamed character gets the foreign class.
        classing = fig3_compiled.classing
        encoded = fig3_compiled.encode("a✗").buffer
        assert encoded[1] == classing.foreign_class
        assert encoded[0] == classing.class_of[fig3_compiled.symbol_index["a"]]

    def test_encode_text_reads_unnamed_characters_as_other(self):
        runtime = Spanner("x{[^é]}.*").runtime()
        classing = runtime.classing
        named = classing.class_of[runtime.symbol_index["é"]]
        assert list(runtime.encode("aé✗").buffer) == [
            classing.other_class,
            named,
            classing.other_class,
        ]

    def test_rejects_missing_initial(self):
        automaton = ExtendedVA()
        automaton.add_state("q")
        with pytest.raises(CompilationError):
            CompiledSubsetEVA(automaton)

    def test_pickle_roundtrip(self, fig3_compiled, figure1_doc):
        evaluate_compiled_arena(fig3_compiled, figure1_doc)
        clone = pickle.loads(pickle.dumps(fig3_compiled))
        assert isinstance(clone, CompiledSubsetEVA)
        assert clone.subset_members == fig3_compiled.subset_members
        assert [dict(row) for row in clone.class_table] == [
            dict(row) for row in fig3_compiled.class_table
        ]
        assert dict(clone.variable_table) == dict(fig3_compiled.variable_table)


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
        finals = fig3_compiled.source.finals
        assert all(subset & finals for subset in result.final_lists)


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
        compiled = CompiledSubsetEVA(spanner.compiled(document))
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
    compiled = CompiledSubsetEVA(automaton)
    assert compiled.num_base_states == automaton.num_states
    determinized = to_deterministic_sequential_eva(automaton, assume_sequential=True)
    assert determinized.num_states >= 1


def test_compilation_report_records_intern_stage(contact_regex):
    spanner = Spanner.from_regex(contact_regex)
    report = spanner.compilation_report()
    assert [stage.name for stage in report.stages][-2:] == ["trim", "intern"]
    assert report.stages[-1].num_states == spanner.runtime().num_base_states
    assert "determinize" not in {stage.name for stage in report.stages}
