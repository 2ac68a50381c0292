"""Unit tests for the command line interface (repro.cli)."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.workloads.spanners import contact_pattern, figure1_document


@pytest.fixture
def document_path(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text(figure1_document().text, encoding="utf-8")
    return str(path)


def run_cli(argv, stdin=None):
    out = io.StringIO()
    code = main(argv, stdin=stdin, out=out)
    return code, out.getvalue()


class TestExtract:
    def test_text_format(self, document_path):
        code, output = run_cli(["extract", contact_pattern(), document_path])
        assert code == 0
        rows = [json.loads(line) for line in output.strip().splitlines()]
        assert {row["name"] for row in rows} == {"John", "Jane"}

    def test_json_format(self, document_path):
        code, output = run_cli(
            ["extract", contact_pattern(), document_path, "--format", "json"]
        )
        assert code == 0
        rows = [json.loads(line) for line in output.strip().splitlines()]
        assert all("begin" in row["name"] for row in rows)

    def test_spans_format(self, document_path):
        code, output = run_cli(
            ["extract", contact_pattern(), document_path, "--format", "spans"]
        )
        assert code == 0
        assert "[1, 5⟩" in output

    def test_limit(self, document_path):
        # A limit of 0 prints no mapping, like `repro stream --limit 0`.
        for limit, lines in (("1", 1), ("0", 0)):
            code, output = run_cli(
                ["extract", contact_pattern(), document_path, "--limit", limit]
            )
            assert code == 0
            assert len(output.strip().splitlines()) == lines

    def test_reads_stdin_when_no_path(self):
        code, output = run_cli(
            ["extract", "x{a+}"], stdin=["aaa"]
        )
        assert code == 0
        assert json.loads(output.strip()) == {"x": "aaa"}


class TestCountAndInspect:
    def test_count(self, document_path):
        code, output = run_cli(["count", contact_pattern(), document_path])
        assert code == 0
        assert output.strip() == "2"

    def test_count_kernel_flag_matches_default(self, document_path):
        _code, default = run_cli(["count", contact_pattern(), document_path])
        for kernel in ("auto", "scalar", "runlength"):
            code, output = run_cli(
                ["count", contact_pattern(), document_path, "--kernel", kernel]
            )
            assert code == 0
            assert output == default

    def test_extract_kernel_flag_matches_default(self, document_path):
        _code, default = run_cli(["extract", contact_pattern(), document_path])
        code, output = run_cli(
            ["extract", contact_pattern(), document_path, "--kernel", "runlength"]
        )
        assert code == 0
        assert output == default

    def test_kernel_flag_rejects_incompatible_engine(self, document_path, capsys):
        code, _output = run_cli(
            ["count", contact_pattern(), document_path,
             "--engine", "reference", "--kernel", "runlength"]
        )
        assert code == 2
        assert "run-length" in capsys.readouterr().err

    def test_inspect(self, document_path):
        code, output = run_cli(["inspect", contact_pattern(), document_path])
        assert code == 0
        assert "deterministic sequential eVA" in output
        assert "stage" in output

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            run_cli([])

    def test_parser_help_mentions_subcommands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in ("extract", "count", "inspect"):
            assert command in help_text


class TestBatch:
    @pytest.fixture
    def batch_paths(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        first.write_text(figure1_document().text, encoding="utf-8")
        second.write_text("Ada <ada@uc.cl>", encoding="utf-8")
        return [str(first), str(second)]

    def test_count_only(self, batch_paths):
        code, output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--count-only"]
        )
        assert code == 0
        rows = [json.loads(line) for line in output.strip().splitlines()]
        assert [row["count"] for row in rows] == [2, 1]
        assert rows[0]["doc"].endswith("a.txt")

    def test_full_mappings(self, batch_paths):
        code, output = run_cli(["batch", contact_pattern(), *batch_paths])
        assert code == 0
        rows = [json.loads(line) for line in output.strip().splitlines()]
        names = {
            mapping["name"]["text"] for row in rows for mapping in row["mappings"]
        }
        assert names == {"John", "Jane", "Ada"}

    def test_reference_engine(self, batch_paths):
        code, output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--engine", "reference",
             "--count-only"]
        )
        assert code == 0
        rows = [json.loads(line) for line in output.strip().splitlines()]
        assert [row["count"] for row in rows] == [2, 1]

    def test_process_mode(self, batch_paths):
        code, output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--mode", "processes",
             "--max-workers", "2", "--chunk-size", "1", "--count-only"]
        )
        assert code == 0
        rows = [json.loads(line) for line in output.strip().splitlines()]
        assert [row["count"] for row in rows] == [2, 1]

    def test_kernel_flag(self, batch_paths):
        _code, default = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--count-only"]
        )
        code, output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--count-only",
             "--kernel", "runlength"]
        )
        assert code == 0
        assert output == default

    def test_kernel_flag_rejects_incompatible_engine(self, batch_paths, capsys):
        code, _output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--engine", "reference",
             "--kernel", "runlength"]
        )
        assert code == 2
        assert "run-length" in capsys.readouterr().err

    def test_batch_in_parser_help(self):
        assert "batch" in build_parser().format_help()


class TestBatchResilience:
    """Failure semantics of ``repro batch``: quarantine, reports, chaos flags."""

    @pytest.fixture
    def batch_paths(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        first.write_text(figure1_document().text, encoding="utf-8")
        second.write_text("Ada <ada@uc.cl>", encoding="utf-8")
        return [str(first), str(second)]

    def test_report_flag_appends_failure_report(self, batch_paths):
        code, output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--count-only", "--report"]
        )
        assert code == 0
        rows = [json.loads(line) for line in output.strip().splitlines()]
        report = rows[-1]["report"]
        assert report["quarantined"] == []
        assert report["counters"]["documents_quarantined"] == 0
        assert set(report["counters"]) == {
            "tasks_retried",
            "worker_crashes",
            "deadlines_exceeded",
            "pool_rebuilds",
            "inline_fallbacks",
            "documents_quarantined",
        }

    def test_quarantined_document_exits_one_with_one_line_stderr(
        self, batch_paths, tmp_path, capsys
    ):
        big = tmp_path / "big.txt"
        big.write_text("a" * 4096, encoding="utf-8")
        code, output = run_cli(
            ["batch", contact_pattern(), *batch_paths, str(big),
             "--count-only", "--report", "--max-document-chars", "1024"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro batch: error:")
        assert "1 document(s) quarantined" in err
        assert "Traceback" not in err
        # The healthy documents still produced their rows, and the
        # report names the quarantined one with its typed error.
        rows = [json.loads(line) for line in output.strip().splitlines()]
        assert [row["count"] for row in rows[:-1]] == [2, 1]
        [record] = rows[-1]["report"]["quarantined"]
        assert record["doc_id"].endswith("big.txt")
        assert record["error_type"] == "ResourceLimitError"
        assert record["stage"] == "guard"

    def test_injected_kill_still_yields_exact_output(self, batch_paths, capsys):
        _code, expected = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--count-only"]
        )
        code, output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--count-only",
             "--mode", "processes", "--max-workers", "1", "--chunk-size", "1",
             "--task-deadline", "30",
             "--inject-faults", '[{"site": "task", "action": "kill", "nth": 2}]']
        )
        assert code == 0
        assert output == expected
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--inject-faults", "not json"],
            ["--inject-faults", '[{"site": "nope", "action": "raise"}]'],
            ["--task-deadline", "0"],
            ["--max-document-chars", "0"],
            ["--max-arena-cells", "-3"],
        ],
    )
    def test_bad_resilience_flags_exit_two_one_line(self, batch_paths, flags, capsys):
        code, _output = run_cli(["batch", contact_pattern(), *batch_paths, *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro batch: error:")
        assert "Traceback" not in err

    def test_pool_start_failure_is_one_line(self, batch_paths, capsys, monkeypatch):
        from repro.runtime.resilience import SupervisedPool

        def refuse(self):
            raise OSError("cannot fork: resource temporarily unavailable")

        monkeypatch.setattr(SupervisedPool, "_start", refuse)
        code, _output = run_cli(
            ["batch", contact_pattern(), *batch_paths, "--mode", "processes",
             "--count-only"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro batch: error:")
        assert "cannot fork" in err
        assert "Traceback" not in err


class TestStream:
    @pytest.fixture
    def log_path(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(
            "boot ok\nERROR worker-3 timeout\nall quiet\nERROR worker-7 reset\n",
            encoding="utf-8",
        )
        return str(path)

    def test_stream_matches_extract(self, log_path):
        pattern = r".*ERROR worker-w{[0-9]} .*"
        code, streamed = run_cli(["stream", pattern, log_path, "--chunk-size", "5"])
        assert code == 0
        extract_code, extracted = run_cli(["extract", pattern, log_path])
        assert extract_code == 0
        assert sorted(streamed.splitlines()) == sorted(extracted.splitlines())
        assert {json.loads(line)["w"] for line in streamed.splitlines()} == {"3", "7"}

    def test_on_finish_mode(self, log_path):
        pattern = r".*ERROR worker-w{[0-9]} .*"
        code, output = run_cli(
            ["stream", pattern, log_path, "--emit", "on-finish", "--chunk-size", "7"]
        )
        assert code == 0
        assert len(output.splitlines()) == 2

    def test_reads_stdin_line_by_line(self):
        code, output = run_cli(
            ["stream", r".*ERROR worker-w{[0-9]} .*"],
            stdin=["quiet\n", "ERROR worker-5 boom\n", "quiet\n"],
        )
        assert code == 0
        assert json.loads(output.strip()) == {"w": "5"}

    def test_spans_format_and_limit(self, log_path):
        code, output = run_cli(
            ["stream", r".*ERROR worker-w{[0-9]} .*", log_path,
             "--format", "spans", "--limit", "1"]
        )
        assert code == 0
        assert len(output.strip().splitlines()) == 1
        assert "⟩" in output

    def test_bad_chunk_size(self, log_path, capsys):
        code, _output = run_cli(
            ["stream", "x{a}", log_path, "--chunk-size", "0"]
        )
        assert code == 2
        assert "--chunk-size" in capsys.readouterr().err


class TestOneLineErrors:
    """Malformed patterns and missing files: one stderr line, no traceback."""

    MALFORMED = "x{[unclosed"

    def assert_one_line_error(self, capsys, code, command):
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, f"expected one line, got: {err!r}"
        assert err.startswith(f"repro {command}: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["extract", "count", "stream"])
    def test_malformed_pattern(self, command, capsys):
        code, _output = run_cli([command, self.MALFORMED], stdin=["abc"])
        self.assert_one_line_error(capsys, code, command)

    def test_malformed_pattern_batch(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        path.write_text("abc", encoding="utf-8")
        code, _output = run_cli(["batch", self.MALFORMED, str(path)])
        self.assert_one_line_error(capsys, code, "batch")

    @pytest.mark.parametrize("command", ["extract", "count", "stream"])
    def test_missing_file(self, command, capsys):
        code, _output = run_cli([command, "x{a}", "/definitely/not/here.txt"])
        self.assert_one_line_error(capsys, code, command)

    def test_missing_file_batch(self, capsys):
        code, _output = run_cli(["batch", "x{a}", "/definitely/not/here.txt"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    def test_stream_foreign_char_after_delivery_is_one_line(self, tmp_path, capsys):
        # 'é' is outside the default printable-ASCII stream alphabet; it
        # arrives after the first match settled, so incremental mode must
        # refuse — as a clean CLI error, not a traceback.
        path = tmp_path / "doc.txt"
        path.write_text("ERROR worker-1 x\né\n", encoding="utf-8")
        code, _output = run_cli(
            ["stream", r".*ERROR worker-w{[0-9]} .*", str(path), "--chunk-size", "17"]
        )
        self.assert_one_line_error(capsys, code, "stream")


class TestExplain:
    def test_single_pattern_plan(self):
        code, output = run_cli(["explain", "x{a+}b"])
        assert code == 0
        assert "logical plan:" in output
        assert "execution plan: engine=" in output

    def test_join_of_patterns_renders_hybrid_plan(self, document_path):
        # Two wide joined atoms exceed the fuse threshold over the
        # document's alphabet, so the plan shows runtime operators.
        code, output = run_cli(
            [
                "explain",
                r"(.*, )?name{[A-Za-z]+} <[a-z0-9@.\-]*>(, .*)?",
                r"(.*<)email{[a-z]+@[a-z.]+}(>.*)?",
                "--combine",
                "join",
                "--project",
                "name,email",
                "--document",
                document_path,
            ]
        )
        assert code == 0
        assert "⋈" in output
        assert "hash-join" in output
        assert "engine=hybrid" in output

    def test_union_combiner(self):
        code, output = run_cli(["explain", "x{a}", "x{b}", "--combine", "union"])
        assert code == 0
        assert "∪" in output

    def test_non_functional_join_reports_clear_error(self, capsys):
        code, _output = run_cli(["explain", "x{a+}", "x{a+}(y{b})?"])
        assert code == 2
        assert "not functional" in capsys.readouterr().err

    def test_unchecked_flag_skips_validation(self):
        code, output = run_cli(
            ["explain", "x{a+}", "x{a+}(y{b})?", "--unchecked"]
        )
        assert code == 0
        assert "physical plan:" in output


class TestServe:
    """The serve subcommand's one-line-stderr error contract.

    The happy path (boot, sessions, metrics) is exercised end to end in
    tests/integration/test_serve.py; here we only pin the CLI surface:
    malformed patterns, bind failures and bad flags must exit 2 with a
    single ``repro serve: error:`` line and no traceback.
    """

    @staticmethod
    def assert_one_line_error(capsys, code):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_malformed_warm_pattern(self, capsys):
        code, _output = run_cli(["serve", "--port", "0", "--warm", "x{"])
        self.assert_one_line_error(capsys, code)

    def test_bind_failure(self, capsys):
        import socket

        holder = socket.socket()
        try:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            code, _output = run_cli(["serve", "--port", str(port)])
        finally:
            holder.close()
        self.assert_one_line_error(capsys, code)
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-sessions", "0"),
            ("--plan-cache-size", "0"),
            ("--idle-timeout", "0"),
            ("--max-session-bytes", "-1"),
        ],
    )
    def test_bad_config_values(self, flag, value, capsys):
        code, _output = run_cli(["serve", "--port", "0", flag, value])
        self.assert_one_line_error(capsys, code)

    def test_serve_in_parser_help(self):
        help_text = build_parser().format_help()
        assert "serve" in help_text
