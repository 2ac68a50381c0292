"""Unit tests for the multi-document batch engine (repro.runtime.batch)."""

import pytest

from repro.core.documents import Document, DocumentCollection
from repro.runtime.batch import run_batch
from repro.runtime.subset import CompiledSubsetEVA
from repro.spanners.spanner import Spanner
from repro.workloads.collections import contact_collection, scenario, scenario_names
from repro.workloads.spanners import contact_pattern


@pytest.fixture(scope="module")
def contact_setup():
    collection = contact_collection(5, records_per_document=8, seed=3)
    spanner = Spanner.from_regex(contact_pattern())
    automaton = spanner.compiled("".join(doc.text for doc in collection))
    return CompiledSubsetEVA(automaton), collection


def counts_of(results):
    return {doc_id: result.count() for doc_id, result in results}


class TestSerialMode:
    def test_yields_every_document_in_order(self, contact_setup):
        compiled, collection = contact_setup
        ids = [doc_id for doc_id, _ in run_batch(compiled, collection)]
        assert ids == collection.ids()

    def test_counts_match_per_document_evaluation(self, contact_setup):
        compiled, collection = contact_setup
        spanner = Spanner.from_regex(contact_pattern())
        batch = counts_of(run_batch(compiled, collection))
        for doc_id, document in collection.items():
            assert batch[doc_id] == spanner.count(document)

    def test_reference_engine_agrees(self, contact_setup):
        compiled, collection = contact_setup
        assert counts_of(run_batch(compiled, collection)) == counts_of(
            run_batch(compiled, collection, engine="reference")
        )

    def test_accepts_plain_iterables(self, contact_setup):
        compiled, _collection = contact_setup
        results = counts_of(run_batch(compiled, ["John <j@g.be>", "nothing"]))
        assert set(results) == {0, 1}

    def test_iterable_ids_use_document_names(self, contact_setup):
        compiled, _collection = contact_setup
        documents = [Document("John <j@g.be>", name="john.txt")]
        assert set(counts_of(run_batch(compiled, documents))) == {"john.txt"}

    def test_is_lazy(self, contact_setup):
        compiled, collection = contact_setup
        stream = run_batch(compiled, collection)
        first_id, _first = next(stream)
        assert first_id == collection.ids()[0]


class TestProcessMode:
    def test_matches_serial_results(self, contact_setup):
        compiled, collection = contact_setup
        serial = counts_of(run_batch(compiled, collection))
        parallel = counts_of(
            run_batch(
                compiled, collection, mode="processes", max_workers=2, chunk_size=2
            )
        )
        assert parallel == serial

    def test_mappings_survive_the_process_boundary(self, contact_setup):
        compiled, collection = contact_setup
        serial = {
            doc_id: {str(m) for m in result}
            for doc_id, result in run_batch(compiled, collection)
        }
        parallel = {
            doc_id: {str(m) for m in result}
            for doc_id, result in run_batch(
                compiled, collection, mode="processes", max_workers=2
            )
        }
        assert parallel == serial

    def test_reference_engine_in_processes(self, contact_setup):
        compiled, collection = contact_setup
        serial = counts_of(run_batch(compiled, collection))
        parallel = counts_of(
            run_batch(
                compiled,
                collection,
                mode="processes",
                engine="reference",
                max_workers=2,
            )
        )
        assert parallel == serial


class TestShutdownSemantics:
    """Clean completion closes the pool gracefully; error paths terminate.

    Pins the supervised stream's shutdown split: a batch that runs to
    completion must end with :meth:`SupervisedPool.close` (letting
    workers drain), while abandoning the generator early must end with
    :meth:`SupervisedPool.terminate`.
    """

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        from repro.runtime import batch as batch_module
        from repro.runtime.resilience import SupervisedPool

        calls = []

        class RecordingPool(SupervisedPool):
            def close(self):
                calls.append("close")
                super().close()

            def terminate(self):
                calls.append("terminate")
                super().terminate()

        monkeypatch.setattr(batch_module, "SupervisedPool", RecordingPool)
        return calls

    def test_clean_completion_closes_gracefully(self, contact_setup, pool_calls):
        compiled, collection = contact_setup
        results = list(
            run_batch(compiled, collection, mode="processes", max_workers=2)
        )
        assert len(results) == len(list(collection.ids()))
        assert pool_calls == ["close"]

    def test_early_generator_close_terminates(self, contact_setup, pool_calls):
        compiled, collection = contact_setup
        stream = run_batch(compiled, collection, mode="processes", max_workers=2)
        next(stream)
        stream.close()
        assert pool_calls == ["terminate"]


class TestValidation:
    def test_unknown_mode_rejected(self, contact_setup):
        compiled, collection = contact_setup
        with pytest.raises(ValueError, match="mode"):
            next(run_batch(compiled, collection, mode="threads"))

    def test_unknown_engine_rejected(self, contact_setup):
        compiled, collection = contact_setup
        with pytest.raises(ValueError, match="engine"):
            next(run_batch(compiled, collection, engine="turbo"))

    def test_non_positive_chunk_size_rejected(self, contact_setup):
        compiled, collection = contact_setup
        with pytest.raises(ValueError, match="chunk_size"):
            next(run_batch(compiled, collection, chunk_size=0))

    def test_single_string_rejected(self, contact_setup):
        compiled, _collection = contact_setup
        with pytest.raises(TypeError):
            next(run_batch(compiled, "not a collection"))

    # Spanner.run_batch checks kernel= (and ignores it); the plan-free
    # run_batch has no kernel at all.

    def test_unknown_kernel_rejected(self, contact_setup):
        _compiled, collection = contact_setup
        spanner = Spanner.from_regex(contact_pattern())
        with pytest.raises(ValueError, match="kernel"):
            next(spanner.run_batch(collection, kernel="warp"))
        with pytest.raises(ValueError, match="kernel"):
            next(spanner.run_batch(collection, streaming=True, kernel="warp"))


class TestKernelAxis:
    def test_kernels_agree_serially(self, contact_setup):
        compiled, collection = contact_setup
        spanner = Spanner.from_regex(contact_pattern())
        expected = counts_of(run_batch(compiled, collection))
        for kernel in ("auto", "scalar", "runlength"):
            assert (
                counts_of(spanner.run_batch(collection, kernel=kernel))
                == expected
            )

    def test_runlength_kernel_across_processes(self, contact_setup):
        compiled, collection = contact_setup
        spanner = Spanner.from_regex(contact_pattern())
        expected = counts_of(run_batch(compiled, collection))
        assert (
            counts_of(
                spanner.run_batch(
                    collection,
                    mode="processes",
                    max_workers=2,
                    kernel="runlength",
                )
            )
            == expected
        )

    def test_otf_batch_accepts_the_runlength_kernel(self):
        # Every kernel name is accepted on a compiled-otf batch and
        # changes nothing.
        spanner = Spanner(".*x{a+}.*", engine="compiled-otf")

        def results(kernel):
            return {
                doc_id: (result.count(), sorted(map(str, result)))
                for doc_id, result in spanner.run_batch(["aab"], kernel=kernel)
            }

        expected = results("auto")
        assert expected[0][0] == 3
        assert results("runlength") == expected


class TestSpannerRunBatch:
    def test_compiles_once_for_every_alphabet(self):
        spanner = Spanner.from_regex(".* name{[A-Z][a-z]+} .*")
        collection = DocumentCollection.from_texts(["hi Ada !", "yo Bob ?"])
        counts = counts_of(spanner.run_batch(collection))
        assert counts == {"doc-0": 1, "doc-1": 1}
        assert counts_of(spanner.run_batch(["¡olé Zoe €!"])) == {0: 1}
        assert spanner.cache_stats().misses == 1

    def test_accepts_iterables_and_keeps_names(self):
        spanner = Spanner.from_regex("x{ab}")
        results = counts_of(
            spanner.run_batch([Document("ab", name="left"), Document("ba", name="right")])
        )
        assert results == {"left": 1, "right": 0}

    def test_engine_override(self):
        spanner = Spanner.from_regex("x{a+}")
        collection = DocumentCollection.from_texts(["aaa", "b"])
        assert counts_of(spanner.run_batch(collection, engine="reference")) == counts_of(
            spanner.run_batch(collection, engine="compiled")
        )

    def test_invalid_engine_rejected(self):
        spanner = Spanner.from_regex("x{a}")
        with pytest.raises(ValueError):
            next(iter(spanner.run_batch(["a"], engine="warp")))


class TestScenarios:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_is_runnable(self, name):
        built = scenario(name, num_documents=2, scale=20, seed=1)
        assert built.num_documents == 2
        assert built.total_length > 0
        spanner = built.build_spanner()
        counts = counts_of(spanner.run_batch(built.collection))
        assert set(counts) == set(built.collection.ids())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario("nope")

    def test_scenarios_are_deterministic(self):
        first = scenario("contacts", num_documents=2, scale=5, seed=9)
        second = scenario("contacts", num_documents=2, scale=5, seed=9)
        assert [d.text for d in first.collection] == [d.text for d in second.collection]
