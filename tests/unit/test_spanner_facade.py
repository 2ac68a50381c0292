"""Unit tests for the Spanner facade and the compilation pipeline."""

import pytest

from repro import Document, Mapping, Span, Spanner
from repro.core.errors import CompilationError
from repro.algebra.compile import evaluate_expression_setwise
from repro.algebra.expressions import Atom
from repro.automata.transforms import to_deterministic_sequential_eva
from repro.regex.parser import parse_regex
from repro.runtime import encoding
from repro.runtime.engine import evaluate_compiled_arena
from repro.spanners.pipeline import CompilationPipeline
from repro.workloads.spanners import figure2_va, figure3_eva, join_heavy_expression

from harness import adversarial_documents


class TestConstruction:
    def test_from_regex_text(self):
        spanner = Spanner.from_regex("x{a+}")
        assert spanner.variables() == frozenset({"x"})

    def test_from_regex_ast(self):
        spanner = Spanner.from_regex(parse_regex("x{a}"))
        assert spanner.evaluate("a") == [Mapping({"x": Span(0, 1)})]

    def test_from_va(self):
        spanner = Spanner.from_va(figure2_va())
        assert set(spanner.evaluate("a")) == figure2_va().evaluate("a")

    def test_from_eva(self):
        spanner = Spanner.from_eva(figure3_eva())
        assert set(spanner.evaluate("ab")) == figure3_eva().evaluate("ab")

    def test_from_expression(self):
        expression = Atom("x{a}b")
        spanner = Spanner.from_expression(expression)
        assert spanner.evaluate("ab") == [Mapping({"x": Span(0, 1)})]

    def test_plain_constructor_with_string(self):
        assert Spanner("x{a}").count("a") == 1

    def test_invalid_source(self):
        with pytest.raises(CompilationError):
            Spanner(3.14)

    def test_repr(self):
        assert "Spanner" in repr(Spanner("a"))


class TestEvaluation:
    def test_evaluate_enumerate_count_agree(self):
        spanner = Spanner.from_regex("a*x{a}a*")
        document = "aaaa"
        evaluated = spanner.evaluate(document)
        enumerated = list(spanner.enumerate(document))
        assert set(evaluated) == set(enumerated)
        assert spanner.count(document) == len(evaluated) == 4

    def test_extract(self):
        spanner = Spanner.from_regex(".*name{[A-Z][a-z]+} .*")
        rows = spanner.extract("hi Ada and Bob !")
        names = sorted(row["name"] for row in rows)
        assert names == ["Ada", "Bob"]

    def test_call_shortcut(self):
        spanner = Spanner.from_regex("x{a}")
        assert spanner("a") == spanner.evaluate("a")

    def test_document_object_accepted(self):
        spanner = Spanner.from_regex("x{a+}")
        assert spanner.evaluate(Document("aa")) == [Mapping({"x": Span(0, 2)})]

    def test_empty_output(self):
        spanner = Spanner.from_regex("x{a}")
        assert spanner.evaluate("b") == []
        assert spanner.count("b") == 0

    def test_empty_document(self):
        spanner = Spanner.from_regex("x{a*}")
        assert spanner.evaluate("") == [Mapping({"x": Span(0, 0)})]

    def test_no_variable_spanner_boolean_matching(self):
        spanner = Spanner.from_regex("(ab)+")
        assert spanner.evaluate("abab") == [Mapping.EMPTY]
        assert spanner.evaluate("aba") == []

    def test_wildcards_follow_document_alphabet(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        assert spanner.count("za!") == 1
        assert spanner.count("zz") == 0

    def test_preprocess_exposes_result_dag(self):
        spanner = Spanner.from_regex("x{a}")
        result = spanner.preprocess("a")
        assert result.count() == 1


class TestCompilationAndCaching:
    def test_compiled_is_deterministic_and_sequential(self):
        spanner = Spanner.from_regex("(x{a}|y{b})c")
        automaton = spanner.compiled("abc")
        assert automaton.is_deterministic()
        assert automaton.is_sequential()

    def test_cache_reused_for_same_alphabet(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        first = spanner.compiled("aba")
        second = spanner.compiled("aab")
        assert first is second

    def test_new_alphabet_reuses_the_compilation(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        first = spanner.compiled("aa")
        second = spanner.compiled("az")
        assert first is second
        assert spanner.cache_stats().misses == 1

    def test_alphabet_independent_source_compiled_once(self):
        spanner = Spanner.from_regex("x{a}b")
        assert spanner.compiled("ab") is spanner.compiled("zzz")

    def test_statistics(self):
        stats = Spanner.from_regex("x{a}b").statistics("ab")
        assert stats.deterministic
        assert stats.sequential
        assert stats.num_variables == 1

    def test_statistics_never_determinize(self, monkeypatch):
        import repro.spanners.pipeline as pipeline_module
        from repro.automata import transforms

        def forbidden(*args, **kwargs):
            raise AssertionError("statistics must not determinize")

        for module in (transforms, pipeline_module):
            monkeypatch.setattr(module, "determinize", forbidden)
        stats = Spanner.from_regex(".*a" + "." * 16 + "x{b}.*").statistics()
        assert stats.num_states == 23
        assert not stats.deterministic and stats.sequential

    def test_compilation_report(self):
        report = Spanner.from_regex("x{a}b").compilation_report("ab")
        assert report.total_seconds >= 0
        assert report.final_stage.num_states > 0
        assert "stage" in report.summary()


class TestPipeline:
    def test_pipeline_from_regex(self):
        pipeline = CompilationPipeline("x{a}b")
        automaton, report = pipeline.compile()
        assert automaton.is_deterministic()
        assert [stage.name for stage in report.stages][0] == "regex→VA"

    def test_pipeline_from_va(self):
        pipeline = CompilationPipeline(figure2_va())
        automaton, _ = pipeline.compile()
        assert automaton.evaluate("a") == figure2_va().evaluate("a")

    def test_pipeline_from_eva(self):
        pipeline = CompilationPipeline(figure3_eva())
        automaton, _ = pipeline.compile()
        assert automaton.evaluate("ab") == figure3_eva().evaluate("ab")

    def test_pipeline_from_expression(self):
        pipeline = CompilationPipeline(Atom("x{a}b") & Atom("y{a}b"))
        automaton, _ = pipeline.compile()
        reference = to_deterministic_sequential_eva(
            figure2_va()
        )  # only used to ensure imports stay exercised
        assert reference.is_deterministic()
        assert automaton.variables() == frozenset({"x", "y"})

    def test_pipeline_rejects_unknown_source(self):
        with pytest.raises(CompilationError):
            CompilationPipeline(object())

    def test_source_needs_alphabet(self):
        assert CompilationPipeline(".*x{a}").source_needs_alphabet()
        assert not CompilationPipeline("x{a}b").source_needs_alphabet()
        assert CompilationPipeline(Atom(".*") & Atom("x{a}")).source_needs_alphabet()

    def test_pipeline_statistics(self):
        stats = CompilationPipeline("x{a}b").statistics()
        assert stats.deterministic
        assert stats.sequential

    def test_report_final_stage_requires_stages(self):
        from repro.spanners.pipeline import CompilationReport

        with pytest.raises(CompilationError):
            CompilationReport().final_stage


class TestCompileOnce:
    """One compilation per spanner, whatever the documents' alphabets."""

    PATTERNS = (".*x{a}.*", "x{.}b", "[^a]*x{a+}[^é]*", ".*x{a}b?y{.?}.*")

    def test_runtime_and_plan_without_document_keep_every_match(self):
        # Compiled with no document, "." must still match the letters the
        # pattern does not name.
        for pattern in self.PATTERNS:
            spanner = Spanner(pattern)
            for text in adversarial_documents():
                expected = {str(m) for m in spanner.evaluate(text, engine="reference")}
                assert {str(m) for m in spanner.evaluate(text)} == expected
                for runtime in (spanner.runtime(), spanner.runtime(text)):
                    arena = evaluate_compiled_arena(runtime, text)
                    assert {str(m) for m in arena} == expected
        hybrid = Spanner.from_expression(join_heavy_expression((3, 5)))
        for text in adversarial_documents():
            expected = {str(m) for m in hybrid.evaluate(text, engine="reference")}
            result = hybrid.plan().operators.execute(text)
            assert {str(m) for m in result} == expected

    def test_adversarial_corpus_compiles_once(self):
        for pattern in self.PATTERNS:
            spanner = Spanner(pattern)
            for text in adversarial_documents():
                before = encoding.encoding_passes()
                spanner.evaluate(Document(text))
                assert encoding.encoding_passes() == before + 1
            assert spanner.cache_stats().misses == 1

    def test_run_batch_compiles_once(self):
        spanner = Spanner(".*x{a}.*")
        spanner.count("a")
        documents = [Document(text) for text in adversarial_documents()]
        before = encoding.encoding_passes()
        list(spanner.run_batch(documents))
        assert encoding.encoding_passes() == before + len(documents)
        assert spanner.cache_stats().misses == 1

    def test_hybrid_join_compiles_once(self):
        spanner = Spanner.from_expression(join_heavy_expression((3, 5)))
        assert spanner.plan().engine == "hybrid"
        for text in adversarial_documents():
            before = encoding.encoding_passes()
            spanner.count(Document(text))
            assert encoding.encoding_passes() == before + 1
        assert spanner.cache_stats().misses == 1

    def test_excluded_letters_never_read_as_other(self):
        # "é" is named only to be excluded: it has no transition, yet it
        # must not read as OTHER, in a regex or an expression.
        expressions = [
            Atom("x{[^é]+}.*").join(Atom(".*x{[^b]+}.*")),
            Atom("x{[^é]}.*").union(Atom("y{é}.*")),
            Atom(".*x{a}[^é]*").project(["x"]),
        ]
        for expression in expressions:
            spanner = Spanner.from_expression(expression)
            for text in adversarial_documents():
                expected = {
                    str(m) for m in evaluate_expression_setwise(expression, text)
                }
                for engine in ("auto", "compiled", "reference"):
                    got = {str(m) for m in spanner.evaluate(text, engine=engine)}
                    assert got == expected, (expression, text, engine)
        assert Spanner("x{[^é]}").evaluate("é") == []
