"""Unit tests for the chunk-fed streaming evaluator (repro.runtime.streaming)."""

import pytest

from repro import Spanner, StreamingError
from repro.core.documents import Document
from repro.runtime.engine import evaluate_compiled_arena
from repro.runtime.plan import ExecutionPlan, choose_plan
from repro.runtime.streaming import StreamingEvaluator
from repro.runtime.subset import CompiledSubsetEVA
from repro.workloads.collections import chunked_document, scenario


def tail_runtime(scale=300, seed=2):
    workload = scenario("tailing-logs", num_documents=1, scale=scale, seed=seed)
    document = next(iter(workload.collection))
    spanner = Spanner.from_regex(workload.pattern)
    return spanner.runtime(document), document


class TestOnFinishArenaIdentity:
    def test_arena_is_array_identical_to_whole_document_engine(self):
        runtime, document = tail_runtime()
        whole = evaluate_compiled_arena(runtime, document)
        for chunk_size in (1, 7, 100, len(document)):
            evaluator = StreamingEvaluator(runtime)
            for chunk in chunked_document(document, chunk_size):
                assert evaluator.feed(chunk) == []
            result = evaluator.finish()
            assert result.document_length == whole.document_length
            assert result.node_markers == whole.node_markers
            assert result.node_positions == whole.node_positions
            assert result.node_starts == whole.node_starts
            assert result.node_ends == whole.node_ends
            assert result.cell_nodes == whole.cell_nodes
            assert result.cell_nexts == whole.cell_nexts
            assert result.final_entries == whole.final_entries

    def test_fast_path_disabled_matches(self):
        runtime, document = tail_runtime(scale=60)
        whole = {str(m) for m in evaluate_compiled_arena(runtime, document)}
        evaluator = StreamingEvaluator(runtime, fast_path=False)
        for chunk in chunked_document(document, 13):
            evaluator.feed(chunk)
        assert {str(m) for m in evaluator.finish()} == whole

    def test_empty_document(self):
        spanner = Spanner.from_regex("x{a*}")
        runtime = spanner.runtime("a")
        evaluator = StreamingEvaluator(runtime)
        result = evaluator.finish()
        expected = {str(m) for m in evaluate_compiled_arena(runtime, "")}
        assert {str(m) for m in result} == expected
        assert result.document_length == 0

    def test_empty_chunks_are_no_ops(self):
        spanner = Spanner.from_regex("x{a+}")
        runtime = spanner.runtime("a")
        evaluator = StreamingEvaluator(runtime)
        evaluator.feed("")
        evaluator.feed(b"")
        evaluator.feed("aa")
        evaluator.feed("")
        expected = {str(m) for m in evaluate_compiled_arena(runtime, "aa")}
        assert {str(m) for m in evaluator.finish()} == expected


class TestBytesProtocol:
    def test_multibyte_split_reassembled(self):
        spanner = Spanner.from_regex(".*x{a+}.*")
        text = "bé aa é"
        runtime = spanner.runtime(text)
        expected = {str(m) for m in evaluate_compiled_arena(runtime, text)}
        raw = text.encode("utf-8")
        assert len(raw) > len(text)  # multi-byte characters present
        evaluator = StreamingEvaluator(runtime)
        for index in range(len(raw)):
            evaluator.feed(raw[index : index + 1])
        assert {str(m) for m in evaluator.finish()} == expected

    def test_str_after_partial_bytes_raises(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        evaluator.feed("é".encode("utf-8")[:1])
        with pytest.raises(StreamingError):
            evaluator.feed("a")

    def test_truncated_utf8_at_finish_raises(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        evaluator.feed("é".encode("utf-8")[:1])
        with pytest.raises(StreamingError):
            evaluator.finish()

    def test_non_chunk_type_rejected(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        with pytest.raises(StreamingError):
            evaluator.feed(42)


class TestProtocol:
    def test_feed_after_finish_raises(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        evaluator.finish()
        with pytest.raises(StreamingError):
            evaluator.feed("a")
        with pytest.raises(StreamingError):
            evaluator.finish()

    def test_rejects_what_is_not_a_compiled_automaton(self):
        spanner = Spanner.from_regex("x{a+}b")
        with pytest.raises(StreamingError):
            StreamingEvaluator(spanner.compiled("ab"))
        assert isinstance(
            StreamingEvaluator(CompiledSubsetEVA(spanner.compiled("ab"))),
            StreamingEvaluator,
        )

    def test_rejects_unknown_emit_mode(self):
        runtime, _document = tail_runtime(scale=20)
        with pytest.raises(StreamingError):
            StreamingEvaluator(runtime, emit="eager")

    def test_interleaved_streams_share_one_automaton(self):
        runtime, document = tail_runtime(scale=80)
        text = document.text
        direct = evaluate_compiled_arena(runtime, document)
        # Two streams fed in lockstep on one automaton, then a whole
        # document: each evaluation holds its own loop state.
        streams = [StreamingEvaluator(runtime), StreamingEvaluator(runtime)]
        for begin in range(0, len(text), 64):
            for stream in streams:
                stream.feed(text[begin : begin + 64])
        for stream in streams:
            assert {str(m) for m in stream.finish()} == {str(m) for m in direct}


class TestIncrementalEmission:
    def test_settled_sinks_exist_for_tailing_pattern(self):
        runtime, document = tail_runtime(scale=60)
        # Subsets are discovered as text reaches them: this text matches.
        assert evaluate_compiled_arena(runtime, document).count()
        sinks = [state for state in range(runtime.num_states) if runtime.settled(state)]
        assert sinks, "the tailing pattern must have a settled sink"
        for state in sinks:
            assert runtime.is_final[state]
            assert runtime.silent[state]

    def test_mappings_settle_before_finish(self):
        runtime, document = tail_runtime(scale=400)
        expected = {str(m) for m in evaluate_compiled_arena(runtime, document)}
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        settled = []
        for chunk in chunked_document(document, 512):
            settled.extend(evaluator.feed(chunk))
        result = evaluator.finish()
        assert settled, "matches must settle while the stream is open"
        assert {str(m) for m in settled} <= expected
        assert {str(m) for m in result} == expected
        assert result.count() == len(expected)
        assert evaluator.settled_count() == len(settled)

    def test_no_duplicate_between_settled_and_residual(self):
        runtime, document = tail_runtime(scale=200)
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        for chunk in chunked_document(document, 256):
            evaluator.feed(chunk)
        result = evaluator.finish()
        everything = [str(m) for m in result]
        assert len(everything) == len(set(everything))

    def test_arena_stays_bounded(self):
        runtime, document = tail_runtime(scale=4000, seed=9)
        whole = evaluate_compiled_arena(runtime, document)
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        for chunk in chunked_document(document, 2048):
            evaluator.feed(chunk)
        result = evaluator.finish()
        assert {str(m) for m in result} == {str(m) for m in whole}
        assert evaluator.peak_arena_cells < len(whole.cell_nodes)

    @staticmethod
    def assert_streams_like_evaluate(pattern, chunks):
        spanner = Spanner.from_regex(pattern)
        expected = {str(m) for m in spanner.evaluate("".join(chunks))}
        for emit in ("on_finish", "incremental"):
            evaluator = spanner.stream(emit=emit)
            delivered = []
            for chunk in chunks:
                delivered.extend(evaluator.feed(chunk))
            result = evaluator.finish()
            assert {str(m) for m in result} == expected
            assert result.count() == len(expected)
            assert {str(m) for m in delivered} <= expected
        return delivered

    def test_unnamed_char_before_delivery_streams_like_evaluate(self):
        for char in ("é", "€", "😀", "\x00"):
            delivered = self.assert_streams_like_evaluate(
                ".*x{a+} .*", [char, "aa", " b", char]
            )
            assert delivered

    def test_unnamed_char_after_delivery_streams_like_evaluate(self):
        for char in ("é", "€", "😀", "\x00"):
            delivered = self.assert_streams_like_evaluate(
                ".*x{a+} .*", ["aa b", char, " a ", char + "a"]
            )
            assert delivered, "the match settles in the trailing wildcard"
            # Without a wildcard the unnamed character kills every run,
            # exactly as in whole-document evaluation.
            self.assert_streams_like_evaluate("x{a+} b", ["aa b", char])

    def test_retain_settled_false_delivers_without_replaying(self):
        runtime, document = tail_runtime(scale=300)
        expected = {str(m) for m in evaluate_compiled_arena(runtime, document)}
        evaluator = StreamingEvaluator(
            runtime, emit="incremental", retain_settled=False
        )
        delivered = []
        for chunk in chunked_document(document, 512):
            delivered.extend(evaluator.feed(chunk))
        result = evaluator.finish()
        # feed() delivered everything; finish() holds only the residue —
        # but the result still counts the true total.
        assert {str(m) for m in delivered} | {str(m) for m in result} == expected
        assert result.settled == []
        assert result.count() == len(expected)
        assert not result.is_empty()
        assert evaluator.settled_count() == len(delivered)
        # A delivered mapping survives any later character.
        evaluator2 = StreamingEvaluator(
            runtime, emit="incremental", retain_settled=False
        )
        assert evaluator2.feed("r ERROR worker-1 r\n")
        assert evaluator2.feed("\x01é") == []
        assert evaluator2.finish().count() == 1

    def test_empty_mapping_settles_immediately_for_plain_star(self):
        spanner = Spanner.from_regex(".*")
        runtime = spanner.runtime()
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        delivered = evaluator.feed("aaa")
        assert [dict(m.items()) for m in delivered] == [{}]
        result = evaluator.finish()
        assert result.count() == 1
        # "a*" names every letter it reads and has no OTHER column: an
        # unnamed character could still kill it, so it emits at finish.
        evaluator = StreamingEvaluator(Spanner("a*").runtime(), emit="incremental")
        assert evaluator.feed("aaa") == []
        assert evaluator.finish().count() == 1


class TestPlanLayer:
    def test_choose_plan_streaming_resolves_auto_to_compiled(self):
        plan = choose_plan(engine="auto", streaming=True)
        assert plan.engine == "compiled" and plan.streaming

    def test_choose_plan_streaming_rejects_other_engines(self):
        assert choose_plan(engine="compiled-otf", streaming=True) == choose_plan(
            engine="compiled", streaming=True
        )
        for engine in ("reference", "hybrid"):
            with pytest.raises(ValueError):
                choose_plan(engine=engine, streaming=True)

    def test_execution_plan_streaming_requires_compiled(self):
        with pytest.raises(ValueError):
            ExecutionPlan("reference", "bad", streaming=True)

    def test_spanner_stream_respects_engine_override(self):
        spanner = Spanner.from_regex("x{a}")
        with pytest.raises(ValueError):
            spanner.stream(engine="reference")
        for engine in ("compiled", "compiled-otf"):
            evaluator = spanner.stream(engine=engine)
            assert isinstance(evaluator, StreamingEvaluator)

    def test_streaming_rejects_hybrid_expression_plans(self):
        # A join over a non-provably-functional union operand must run
        # the hybrid operator plan; the monolithic fused automaton
        # silently loses mappings, so streaming refuses it rather than
        # quietly downgrading.
        from repro.algebra.expressions import Atom

        expression = Atom("x{a}b").join(Atom("x{a}b").union(Atom("(a)y{b}")))
        spanner = Spanner.from_expression(expression)
        assert len(spanner.evaluate("ab")) == 2  # hybrid, the sound route
        with pytest.raises(ValueError, match="hybrid"):
            spanner.stream(alphabet="ab")
        with pytest.raises(ValueError, match="hybrid"):
            spanner.run_batch(["ab"], streaming=True)

    def test_fully_fused_expression_still_streams(self):
        # When the optimizer fuses everything, the monolithic automaton
        # IS the plan — streaming it is sound and must keep working.
        from repro.algebra.expressions import Atom

        expression = Atom(".*x{a+}.*").union(Atom(".*x{b+}.*"))
        spanner = Spanner.from_expression(expression)
        document = "aabba"
        expected = {str(m) for m in spanner.evaluate(document)}
        evaluator = spanner.stream(alphabet=frozenset(document))
        for char in document:
            evaluator.feed(char)
        assert {str(m) for m in evaluator.finish()} == expected


class TestBatchStreaming:
    def test_serial_and_process_streaming_match_whole_document_batch(self):
        workload = scenario("tailing-logs", num_documents=3, scale=200, seed=4)
        spanner = Spanner.from_regex(workload.pattern)
        base = {
            str(doc_id): {str(m) for m in result}
            for doc_id, result in spanner.run_batch(workload.collection)
        }
        streamed = {
            str(doc_id): {str(m) for m in result}
            for doc_id, result in spanner.run_batch(
                workload.collection, streaming=True, stream_chunk_size=128
            )
        }
        assert streamed == base
        processes = {
            str(doc_id): {str(m) for m in result}
            for doc_id, result in spanner.run_batch(
                workload.collection,
                streaming=True,
                mode="processes",
                max_workers=2,
                stream_chunk_size=128,
            )
        }
        assert processes == base

    def test_streaming_rejects_non_compiled_engines(self):
        workload = scenario("tailing-logs", num_documents=1, scale=50)
        spanner = Spanner.from_regex(workload.pattern)
        with pytest.raises(ValueError):
            list(spanner.run_batch(workload.collection, streaming=True, engine="reference"))

    def test_document_iter_chunks(self):
        document = Document("abcdefg")
        assert list(document.iter_chunks(3)) == ["abc", "def", "g"]
        with pytest.raises(ValueError):
            list(document.iter_chunks(0))

    def test_chunked_document_accepts_plain_strings(self):
        assert list(chunked_document("abcd", 3)) == ["abc", "d"]
        with pytest.raises(ValueError):
            list(chunked_document("abcd", 0))
