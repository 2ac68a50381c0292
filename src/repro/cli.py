"""Command line interface: ``python -m repro``.

Seven subcommands expose the library's main operations on files (or stdin):

``extract``
    Evaluate a regex-formula spanner over a document and print one line per
    output mapping (text, JSON, or paper span notation).

``count``
    Count the output mappings with Algorithm 3 (no enumeration).

``inspect``
    Compile a spanner and print the pipeline report and the size statistics
    of the resulting deterministic sequential eVA.

``explain``
    Print the logical → physical query plan of a spanner.  One pattern
    shows the trivial single-atom plan; several patterns are combined into
    an algebra expression (``--combine join|union``, optionally projected
    with ``--project``), which exercises the cost-based optimizer: the
    output shows the rewritten logical tree, the estimated automaton sizes
    and, per operator, whether it was fused into an automaton or cut into
    a runtime arena operator.

``batch``
    Compile once and evaluate over many document files with the batch
    engine, serially or across worker processes, printing one JSON line per
    document.

``stream``
    Chunk-fed evaluation (:mod:`repro.runtime.streaming`): read the
    document in ``--chunk-size`` slices from a file or line-by-line from a
    pipe, and — in the default ``--emit incremental`` mode — print each
    mapping the moment it becomes settled instead of waiting for EOF.
    The pattern compiles once and its wildcards match every character,
    so the output equals ``extract`` on the same file.

``serve``
    The long-lived multi-tenant extraction service
    (:mod:`repro.server`): an asyncio HTTP front-end where every
    connection opens a (pattern, alphabet, emit-mode) session, feeds
    document chunks as NDJSON events and receives mappings back
    incrementally, with a shared plan cache, admission control and a
    ``/metrics`` endpoint.

Every command reports malformed patterns, unreadable files, bind
failures and streaming protocol errors as a one-line message on stderr
with a non-zero exit code — no tracebacks.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import sys
from typing import Iterable

from repro.core.documents import Document, DocumentCollection
from repro.core.errors import ReproError
from repro.io.serialization import mapping_to_dict
from repro.runtime.plan import ENGINE_CHOICES, MODES
from repro.spanners.spanner import Spanner

__all__ = ["build_parser", "main"]

#: The default declared alphabet of ``repro stream`` and ``repro serve``:
#: printable ASCII plus the usual whitespace.  ``--alphabet`` is accepted
#: for compatibility; wildcards match every character whatever it says.
DEFAULT_STREAM_ALPHABET = "".join(chr(point) for point in range(32, 127)) + "\t\n\r"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constant-delay evaluation of regular document spanners.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("pattern", help="regex formula with captures, e.g. '.*name{[A-Z][a-z]+} .*'")
        sub.add_argument(
            "document",
            nargs="?",
            help="path to the input document (omit to read from stdin)",
        )

    def add_engine(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--engine",
            choices=list(ENGINE_CHOICES),
            default="auto",
            help="evaluation engine: let the planner decide (auto, default), "
            "the lazily determinized arena runtime (compiled; compiled-otf "
            "is another name for it), the optimizer's physical operator "
            "plan for algebra expressions (hybrid; same as auto on a plain "
            "regex pattern), or the legacy dict-based loop (reference)",
        )

    extract = subparsers.add_parser("extract", help="enumerate the output mappings")
    add_common(extract)
    add_engine(extract)
    extract.add_argument(
        "--format",
        choices=["text", "json", "spans"],
        default="text",
        help="output format: extracted text (default), JSON records, or paper span notation",
    )
    extract.add_argument(
        "--limit", type=int, default=None, help="stop after this many mappings"
    )

    count = subparsers.add_parser("count", help="count the output mappings (Algorithm 3)")
    add_common(count)
    add_engine(count)

    inspect = subparsers.add_parser("inspect", help="show the compilation pipeline report")
    add_common(inspect)

    explain = subparsers.add_parser(
        "explain", help="print the logical → physical query plan"
    )
    explain.add_argument(
        "patterns",
        nargs="+",
        metavar="pattern",
        help="one or more regex formulas; several are combined into an "
        "algebra expression with --combine",
    )
    explain.add_argument(
        "--combine",
        choices=["join", "union"],
        default="join",
        help="how to combine multiple patterns (default: join)",
    )
    explain.add_argument(
        "--project",
        metavar="VARS",
        default=None,
        help="comma-separated variables to project the expression onto",
    )
    explain.add_argument(
        "--document",
        default=None,
        help="path of a document (accepted for compatibility: the plan is "
        "the same for every document)",
    )
    explain.add_argument(
        "--unchecked",
        action="store_true",
        help="skip the functional-join validation of the optimizer",
    )
    add_engine(explain)

    batch = subparsers.add_parser(
        "batch", help="evaluate one spanner over many documents (compile once)"
    )
    batch.add_argument(
        "pattern", help="regex formula with captures, e.g. '.*name{[A-Z][a-z]+} .*'"
    )
    batch.add_argument(
        "documents", nargs="+", help="paths of the input documents (one per file)"
    )
    batch.add_argument(
        "--mode",
        choices=list(MODES),
        default="serial",
        help="evaluate in-process (serial) or fan out to worker processes",
    )
    add_engine(batch)
    batch.add_argument(
        "--chunk-size", type=int, default=16, help="documents per worker task"
    )
    batch.add_argument(
        "--max-workers", type=int, default=None, help="pool size in process mode"
    )
    batch.add_argument(
        "--count-only",
        action="store_true",
        help="print only the per-document mapping counts, not the mappings",
    )
    batch.add_argument(
        "--report",
        action="store_true",
        help="print a final JSON line with the run's failure report: "
        "quarantined documents plus retry/rebuild/fallback counters",
    )
    batch.add_argument(
        "--task-deadline",
        type=float,
        default=300.0,
        help="seconds a pooled task may run before it is treated as a "
        "worker crash (default: 300)",
    )
    batch.add_argument(
        "--max-document-chars",
        type=int,
        default=None,
        help="quarantine documents longer than this instead of evaluating "
        "them (guards worker memory; default: no limit)",
    )
    batch.add_argument(
        "--max-arena-cells",
        type=int,
        default=None,
        help="quarantine documents whose result arena exceeds this many "
        "cells (guards driver memory; default: no limit)",
    )
    batch.add_argument(
        "--inject-faults",
        metavar="JSON",
        default=None,
        help="deterministic fault-injection plan for chaos testing, e.g. "
        '\'[{"site": "task", "action": "kill", "nth": 2}]\' '
        "(sites: task, evaluate, encode; actions: raise, "
        "kill, delay)",
    )

    stream = subparsers.add_parser(
        "stream", help="chunk-fed evaluation: emit mappings as a stream settles"
    )
    stream.add_argument(
        "pattern", help="regex formula with captures, e.g. '.*name{[A-Z][a-z]+} .*'"
    )
    stream.add_argument(
        "document",
        nargs="?",
        help="path of the input document, read in --chunk-size slices "
        "(omit to read from stdin line by line — tail -f friendly)",
    )
    stream.add_argument(
        "--chunk-size", type=int, default=8192, help="characters per chunk"
    )
    stream.add_argument(
        "--emit",
        choices=["incremental", "on-finish"],
        default="incremental",
        help="incremental (default): print each mapping the moment it is "
        "settled; on-finish: buffer the arena and print everything at EOF",
    )
    stream.add_argument(
        "--alphabet",
        default=None,
        help="characters the stream may contain (accepted for compatibility: "
        "wildcards match every character)",
    )
    stream.add_argument(
        "--format",
        choices=["text", "json", "spans"],
        default="text",
        help="output format; 'text' and 'json' retain the whole streamed "
        "text to slice captured substrings (memory grows with the "
        "stream) — use 'spans' on unbounded tails, it retains nothing",
    )
    stream.add_argument(
        "--limit", type=int, default=None, help="stop after this many mappings"
    )

    serve = subparsers.add_parser(
        "serve", help="run the multi-tenant async extraction service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="cap on concurrently open sessions; past it, opens get HTTP 429",
    )
    serve.add_argument(
        "--plan-cache-size",
        type=int,
        default=32,
        help="bound of the shared pattern -> compiled-plan cache",
    )
    serve.add_argument(
        "--max-session-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="per-session cap on fed document bytes (0 disables the cap)",
    )
    serve.add_argument(
        "--max-session-arena-cells",
        type=int,
        default=0,
        help="per-session cap on live arena cells (0 disables the cap); "
        "trips before a pathological pattern-document pair can exhaust "
        "the server's memory",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        help="seconds a session may sit idle between events before it is closed",
    )
    serve.add_argument(
        "--alphabet",
        default=None,
        help="default declared alphabet for sessions that omit one "
        "(accepted for compatibility: wildcards match every character)",
    )
    serve.add_argument(
        "--warm",
        action="append",
        default=[],
        metavar="PATTERN",
        help="precompile a pattern into the shared plan cache at boot "
        "(repeatable; malformed patterns abort with a one-line error)",
    )

    return parser


def _read_document(path: str | None, stdin: Iterable[str] | None = None) -> Document:
    if path is None:
        text = "".join(stdin if stdin is not None else sys.stdin)
        return Document(text, name="<stdin>")
    return Document.from_file(path)


def _run_extract(args: argparse.Namespace, document: Document, out) -> int:
    spanner = Spanner.from_regex(args.pattern)
    try:
        mappings = spanner.enumerate(document, engine=args.engine)
    except ValueError as error:
        print(f"repro extract: error: {error}", file=sys.stderr)
        return 2
    produced = 0
    for mapping in mappings:
        if args.limit is not None and produced >= args.limit:
            break
        if args.format == "json":
            print(json.dumps(mapping_to_dict(mapping, document), sort_keys=True), file=out)
        elif args.format == "spans":
            print(mapping.paper_notation(), file=out)
        else:
            print(json.dumps(mapping.contents(document), sort_keys=True), file=out)
        produced += 1
    return 0


def _count_command(args: argparse.Namespace, document: Document, out) -> int:
    spanner = Spanner.from_regex(args.pattern)
    try:
        total = spanner.count(document, engine=args.engine)
    except ValueError as error:
        print(f"repro count: error: {error}", file=sys.stderr)
        return 2
    print(total, file=out)
    return 0


def _run_inspect(args: argparse.Namespace, document: Document, out) -> int:
    spanner = Spanner.from_regex(args.pattern)
    report = spanner.compilation_report(document)
    statistics = spanner.statistics(document)
    print(report.summary(), file=out)
    print(file=out)
    print(
        f"deterministic sequential eVA: {statistics.num_states} states, "
        f"{statistics.num_transitions} transitions, "
        f"{statistics.num_variables} variables, "
        f"alphabet size {statistics.alphabet_size}",
        file=out,
    )
    print(
        f"deterministic={statistics.deterministic} "
        f"sequential={statistics.sequential} functional={statistics.functional}",
        file=out,
    )
    return 0


def _run_explain(args: argparse.Namespace, out) -> int:
    from repro.core.errors import CompilationError
    from repro.algebra.expressions import Atom

    expression = Atom(args.patterns[0])
    for pattern in args.patterns[1:]:
        atom = Atom(pattern)
        expression = (
            expression.join(atom) if args.combine == "join" else expression.union(atom)
        )
    if args.project is not None:
        keep = [variable.strip() for variable in args.project.split(",") if variable.strip()]
        expression = expression.project(keep)
    document = _read_document(args.document, stdin=()) if args.document else ""
    spanner = Spanner.from_expression(expression, unchecked=args.unchecked)
    try:
        print(spanner.explain(document, engine=args.engine), file=out)
    except CompilationError as error:
        print(f"repro explain: error: {error}", file=sys.stderr)
        return 2
    return 0


def _batch_policy(args: argparse.Namespace) -> "ResiliencePolicy":
    """The fault-tolerance policy of one ``repro batch`` invocation.

    Quarantine is always on: a poison document becomes a line in the
    failure report and a non-zero exit, never a traceback.  Raises
    ``ValueError`` on a malformed ``--inject-faults`` plan or a
    non-positive deadline or guard value (the policy constructors check
    them).
    """
    from repro.runtime.resilience import FaultPlan, ResiliencePolicy, ResourceBudget

    budget = None
    if args.max_document_chars is not None or args.max_arena_cells is not None:
        budget = ResourceBudget(
            max_document_chars=args.max_document_chars,
            max_arena_cells=args.max_arena_cells,
        )
    faults = None
    if args.inject_faults is not None:
        faults = FaultPlan.from_json(args.inject_faults)
    return ResiliencePolicy(
        task_deadline=args.task_deadline,
        quarantine=True,
        budget=budget,
        faults=faults,
    )


def _run_batch(args: argparse.Namespace, out) -> int:
    from repro.runtime.resilience import FailureReport

    if args.chunk_size < 1:
        print(f"repro batch: error: --chunk-size must be positive, got {args.chunk_size}", file=sys.stderr)
        return 2
    if args.max_workers is not None and args.max_workers < 1:
        print(f"repro batch: error: --max-workers must be positive, got {args.max_workers}", file=sys.stderr)
        return 2
    try:
        policy = _batch_policy(args)
    except ValueError as error:
        print(f"repro batch: error: {error}", file=sys.stderr)
        return 2
    try:
        collection = DocumentCollection.from_files(args.documents)
    except OSError as error:
        print(f"repro batch: error: cannot read document: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"repro batch: error: {error}", file=sys.stderr)
        return 2
    report = FailureReport()
    spanner = Spanner.from_regex(args.pattern)
    try:
        results = spanner.run_batch(
            collection,
            mode=args.mode,
            engine=args.engine,
            chunk_size=args.chunk_size,
            max_workers=args.max_workers,
            policy=policy,
            report=report,
        )
    except ValueError as error:
        print(f"repro batch: error: {error}", file=sys.stderr)
        return 2
    for doc_id, result in results:
        record: dict[str, object] = {"doc": str(doc_id)}
        if args.count_only:
            record["count"] = result.count()
        else:
            document = collection[doc_id]
            record["mappings"] = [
                mapping_to_dict(mapping, document) for mapping in result
            ]
            record["count"] = len(record["mappings"])
        print(json.dumps(record, sort_keys=True), file=out)
    if args.report:
        print(json.dumps({"report": report.as_dict()}, sort_keys=True), file=out)
    if len(report):
        names = ", ".join(entry.doc_id for entry in report.quarantined)
        print(
            f"repro batch: error: {len(report)} document(s) quarantined "
            f"({names}); rerun with --report for details",
            file=sys.stderr,
        )
        return 1
    return 0


def _stream_chunks(path: str | None, chunk_size: int, stdin: Iterable[str] | None):
    """The chunk source of ``repro stream``.

    A file is read in *chunk_size* slices; stdin is consumed line by
    line, which keeps the command responsive on a pipe that is still
    being written (each line of a ``tail -f`` arrives as its own chunk).
    """
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            while True:
                chunk = handle.read(chunk_size)
                if not chunk:
                    return
                yield chunk
    yield from (stdin if stdin is not None else sys.stdin)


class _StreamedText:
    """Grow-only text with per-span slicing and no whole-stream joins.

    The text/json output formats need the characters a mapping's spans
    cover, but re-joining every chunk seen so far on each flush would be
    quadratic on a long tail.  This keeps the chunks as-is plus their
    cumulative end offsets; a slice touches only the chunks it overlaps
    (binary search + span length).  ``Span.content`` accepts it through
    the ``.text`` duck-typing path.
    """

    def __init__(self) -> None:
        self._parts: list[str] = []
        self._ends: list[int] = []

    def append(self, chunk: str) -> None:
        if chunk:
            base = self._ends[-1] if self._ends else 0
            self._parts.append(chunk)
            self._ends.append(base + len(chunk))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    @property
    def text(self) -> "_StreamedText":
        return self

    def __getitem__(self, key) -> str:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("streamed text supports contiguous slices only")
        begin, end, _step = key.indices(len(self))
        index = bisect.bisect_right(self._ends, begin)
        pieces: list[str] = []
        position = self._ends[index - 1] if index else 0
        while index < len(self._parts) and position < end:
            part = self._parts[index]
            pieces.append(part[max(0, begin - position) : end - position])
            position += len(part)
            index += 1
        return "".join(pieces)


def _run_stream(args: argparse.Namespace, out, stdin: Iterable[str] | None) -> int:
    if args.chunk_size < 1:
        print(
            f"repro stream: error: --chunk-size must be positive, got {args.chunk_size}",
            file=sys.stderr,
        )
        return 2
    spanner = Spanner.from_regex(args.pattern)
    alphabet = args.alphabet if args.alphabet is not None else DEFAULT_STREAM_ALPHABET
    emit = "on_finish" if args.emit == "on-finish" else "incremental"
    # Settled mappings are printed straight from feed(), so the evaluator
    # need not keep them around for finish() — memory stays at the
    # in-flight state on an unbounded tail.
    evaluator = spanner.stream(alphabet=alphabet, emit=emit, retain_settled=False)

    # The streamed text is retained only when the output format needs it
    # to slice captured substrings; 'spans' runs with no retention at all.
    retained = _StreamedText() if args.format in ("text", "json") else None
    produced = 0

    if args.limit is not None and args.limit <= 0:
        return 0

    def render(mappings) -> bool:
        nonlocal produced
        for mapping in mappings:
            if args.format == "json":
                print(
                    json.dumps(mapping_to_dict(mapping, retained), sort_keys=True),
                    file=out,
                )
            elif args.format == "spans":
                print(mapping.paper_notation(), file=out)
            else:
                print(json.dumps(mapping.contents(retained), sort_keys=True), file=out)
            produced += 1
            if args.limit is not None and produced >= args.limit:
                return True
        return False

    for chunk in _stream_chunks(args.document, args.chunk_size, stdin):
        if retained is not None:
            retained.append(chunk)
        if render(evaluator.feed(chunk)):
            return 0
    result = evaluator.finish()
    if emit == "incremental":
        render(result.residual)
    else:
        render(result)
    return 0


def _run_serve(args: argparse.Namespace, out) -> int:
    import asyncio

    from repro.server import ServerConfig, SpannerService, serve_forever

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            plan_cache_size=args.plan_cache_size,
            max_session_bytes=args.max_session_bytes,
            max_session_arena_cells=args.max_session_arena_cells,
            idle_timeout=args.idle_timeout,
            default_alphabet=(
                args.alphabet if args.alphabet is not None else DEFAULT_STREAM_ALPHABET
            ),
        )
    except ValueError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2
    service = SpannerService(config)
    # Warm-up patterns compile before the socket binds; a malformed one
    # propagates to main()'s one-line-stderr handler like any other
    # ReproError.
    for pattern in args.warm:
        service.warm(pattern)

    def announce(server) -> None:
        print(
            f"repro serve: listening on http://{config.host}:{server.port}",
            file=out,
            flush=True,
        )

    try:
        asyncio.run(serve_forever(config, service=service, ready=announce))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None, stdin: Iterable[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, stdin, out, parser)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro ... | head`): the
        # conventional quiet exit, not an error.  Point stdout at
        # /dev/null so the interpreter's shutdown flush stays silent.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except (ReproError, OSError, UnicodeDecodeError) as error:
        # One line on stderr, non-zero exit, no traceback — the contract
        # for malformed patterns, unreadable files and broken streams.
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


def _dispatch(args, stdin, out, parser) -> int:
    if args.command == "batch":
        return _run_batch(args, out)
    if args.command == "explain":
        return _run_explain(args, out)
    if args.command == "stream":
        return _run_stream(args, out, stdin)
    if args.command == "serve":
        return _run_serve(args, out)
    document = _read_document(args.document, stdin)
    if args.command == "extract":
        return _run_extract(args, document, out)
    if args.command == "count":
        return _count_command(args, document, out)
    if args.command == "inspect":
        return _run_inspect(args, document, out)
    parser.error(f"unknown command {args.command!r}")
    return 2
