"""End-to-end integration tests across the whole stack.

These tests take realistic workloads through the public API and check that
all evaluation routes (constant-delay algorithm, Algorithm 3 counting,
naive baseline, polynomial-delay baseline, Table 1 reference semantics)
agree with each other.
"""

import pytest

from repro import Spanner
from repro.baselines.naive import naive_evaluate
from repro.baselines.polydelay import PolynomialDelayEnumerator
from repro.counting.count import count_mappings
from repro.enumeration.enumerate import delay_profile
from repro.regex.compiler import compile_to_va
from repro.regex.parser import parse_regex
from repro.regex.semantics import evaluate_regex
from repro.workloads.documents import contact_document, dna_sequence, server_log
from repro.workloads.spanners import contact_pattern, keyword_pair_pattern, nested_capture_regex


class TestContactExtraction:
    def test_extraction_scales_with_records(self):
        spanner = Spanner.from_regex(contact_pattern())
        for records in (1, 5, 20):
            document = contact_document(records, seed=records)
            rows = spanner.extract(document)
            assert len(rows) == records
            assert spanner.count(document) == records

    def test_reference_routes_count_every_record(self):
        # Algorithm 1 over the up-front determinized eVA, Algorithm 3, and
        # Algorithm 1 determinized on the fly each find one mapping per
        # record on a longer document.
        from repro.automata.transforms import va_to_eva
        from repro.enumeration.onthefly import evaluate_on_the_fly

        records = 50
        document = contact_document(records, seed=7)
        spanner = Spanner.from_regex(contact_pattern())
        assert sum(1 for _ in spanner.preprocess(document, engine="reference")) == records
        assert spanner.count(document, engine="reference") == records
        extended = va_to_eva(compile_to_va(contact_pattern(), document.text))
        assert sum(1 for _ in evaluate_on_the_fly(extended, document)) == records

    def test_every_row_is_well_formed(self):
        spanner = Spanner.from_regex(contact_pattern())
        document = contact_document(10, seed=3)
        for row in spanner.extract(document):
            assert row["name"][0].isupper()
            assert ("email" in row) != ("phone" in row)
            if "email" in row:
                assert "@" in row["email"]
            else:
                assert "-" in row["phone"]


class TestLogAnalysis:
    def test_error_worker_extraction(self):
        pattern = r".*ERROR worker-(id{[0-9]}) (msg{[a-z 0-9]+})(\n.*)?"
        spanner = Spanner.from_regex(pattern)
        document = server_log(15, seed=2, error_rate=1.0)
        rows = spanner.extract(document)
        assert rows, "expected at least one ERROR line"
        assert all(row["id"].isdigit() for row in rows)

    def test_keyword_pair_extraction(self):
        spanner = Spanner.from_regex(keyword_pair_pattern("ERROR ", " timeout"))
        document = "x ERROR worker-1 timeout y\nERROR worker-2 ok\n"
        gaps = {row["gap"] for row in spanner.extract(document)}
        assert gaps == {"worker-1"}


class TestDnaMotifs:
    def test_motif_context_extraction(self):
        # Extract what lies between two anchor motifs.
        spanner = Spanner.from_regex(".*ACG(between{[ACGT]*})TGC.*")
        document = "TTACGAATGCGG"
        rows = spanner.extract(document)
        assert {row["between"] for row in rows} == {"AA"}

    def test_all_occurrences_of_motif(self):
        spanner = Spanner.from_regex(".*(hit{ACA}).*")
        document = dna_sequence(200, seed=1)
        rows = spanner.evaluate(document)
        # Overlapping occurrences are all reported, unlike with re.findall.
        text = document.text
        occurrences = sum(
            1 for start in range(len(text) - 2) if text[start:start + 3] == "ACA"
        )
        assert occurrences > 0
        assert len(rows) == occurrences


class TestCrossEngineAgreement:
    PATTERNS_AND_DOCUMENTS = [
        ("a*x{a}a*", "aaaa"),
        ("x{a+}y{b+}", "aabb"),
        ("(x{a}|y{b})c*", "ac"),
        (".*x{ab}.*", "abab"),
        ("x{.*}", "abc"),
        ("x{a*}y{a*}", "aaa"),
    ]

    @pytest.mark.parametrize("pattern,document", PATTERNS_AND_DOCUMENTS)
    def test_all_engines_agree(self, pattern, document):
        alphabet = frozenset(document) | frozenset("ab")
        reference = evaluate_regex(pattern, document)

        spanner = Spanner.from_regex(pattern)
        constant_delay = set(spanner.evaluate(document))
        assert constant_delay == reference

        assert spanner.count(document) == len(reference)

        va = compile_to_va(pattern, alphabet)
        assert naive_evaluate(va, document) == reference

        compiled = spanner.compiled(document)
        assert PolynomialDelayEnumerator(compiled).evaluate(document) == reference
        assert count_mappings(compiled, document) == len(reference)


class TestQuadraticOutputWorkload:
    def test_nested_captures_output_size(self):
        spanner = Spanner.from_regex(nested_capture_regex(1))
        document = "a" * 20
        # x1 ranges over all spans of the document.
        expected = (len(document) + 1) * (len(document) + 2) // 2
        assert spanner.count(document) == expected
        assert spanner.count(document, engine="reference") == expected

    def test_delays_do_not_depend_on_position(self):
        spanner = Spanner.from_regex(nested_capture_regex(1))
        document = "a" * 30
        result = spanner.preprocess(document)
        delays = delay_profile(result, limit=200)
        assert len(delays) == 200
        # Smoke-level check of the constant-delay property: no recorded
        # delay is wildly larger than the median (allowing generous noise
        # for the interpreter and the first output).
        ordered = sorted(delays)
        median = ordered[len(ordered) // 2]
        assert max(delays) < max(median * 500, 0.01)


class TestExecutionPlanAcceptance:
    """The ISSUE 2 acceptance scenarios, end to end through the facade."""

    def test_census_enumerate_and_count_never_build_dag_nodes(self, monkeypatch):
        from repro.counting.census import CensusInstance
        from repro.enumeration import dag as dag_module
        from repro.workloads.spanners import random_census_nfa

        instance = CensusInstance(random_census_nfa(5, "ab", density=0.35, seed=13), 4)
        automaton, document = instance.to_spanner()
        spanner = Spanner.from_va(automaton)
        expected = instance.solve_directly()

        def forbidden(*args, **kwargs):
            raise AssertionError("the compiled plan must not build DagNode objects")

        monkeypatch.setattr(dag_module.DagNode, "__init__", forbidden)
        plan = spanner.plan(document)
        assert plan.engine == "compiled"
        assert spanner.count(document) == expected
        assert len(list(spanner.enumerate(document))) == expected

    def test_nondeterministic_eva_runs_lazily(self, monkeypatch):
        import repro.spanners.pipeline as pipeline_module
        from repro.automata import transforms
        from repro.automata.transforms import va_to_eva

        extended = va_to_eva(compile_to_va(parse_regex("(aa|a)*x{b+}"), "ab"))
        assert not extended.is_deterministic()
        assert extended.is_sequential()
        expected = {str(m) for m in extended.evaluate("aabb")}

        spanner = Spanner.from_eva(extended)
        for module in (transforms, pipeline_module):
            monkeypatch.setattr(
                module,
                "determinize",
                lambda *a, **k: pytest.fail("a request must not determinize"),
            )
        assert {str(m) for m in spanner.enumerate("aabb")} == expected
        assert spanner.count("aabb") == len(expected)
