"""The library workloads: ``logs-sparse``, ``contacts-dense``, ``nested-output``.

One client, closed loop.  Texts come in rounds: every round draws one new
text per size of the workload's 16x length mix, and each text is asked
once as a ``count`` and once as an ``extract`` request, in a seeded
shuffled order (the 50/50 draw, balanced per round so the mix does not
drift between seeds).  Every request wraps its text in a fresh
:class:`~repro.Document`, so the encoding cache starts cold; the
:class:`~repro.Spanner` is built with its defaults once per pass and
reused.  An untraced run replays the same requests in a fixed number of
passes and keeps each request's best time (:class:`Replays`).

The extract request is timed exactly as ``Spanner.extract`` works:
``for m in spanner.enumerate(doc): m.contents(text)``.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from array import array
from dataclasses import dataclass, field

from repro import Document, Spanner
from repro.runtime import encoding
from repro.runtime.runlength import resolve_kernel
from repro.workloads.collections import scenario

from common import (
    OUT_DIR,
    Tracer,
    fresh_interpreter_seconds,
    import_seconds,
    median,
    percentile,
    rotate_cpus,
    unpin,
)

_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    #: The :func:`repro.workloads.collections.scenario` the texts come from.
    scenario: str
    #: Traffic length mix: scenario scales spanning 16x in characters (or,
    #: for nested-output, 12x in mappings per document).
    sizes: tuple[int, ...]
    #: Layer-probe sizes: 1x, 4x and 16x of the smallest.
    sweep: tuple[int, ...]
    #: Seconds one pass took at the seed commit on a 2-core runner.  An
    #: untraced run makes ``--seconds / pass_seconds`` passes, a count
    #: that does not depend on how fast the code under test is.
    pass_seconds: float
    #: Keep every n-th inter-mapping gap (bounds memory on nested-output).
    delay_stride: int = 1
    #: If set, ``(marker, rate)``: a text is redrawn until ``marker`` occurs
    #: exactly ``max(1, round(rate * size))`` times, so the number of
    #: matches in a run does not vary with its seed, and every text has a
    #: first mapping.
    matches: tuple[str, float] | None = None

    def pattern(self) -> str:
        return scenario(self.scenario, num_documents=1, scale=self.sweep[0]).pattern

    def text(self, size: int, seed: int) -> str:
        for attempt in range(1000):
            built = scenario(
                self.scenario, num_documents=1, scale=size, seed=seed + attempt * 10**12
            )
            text = next(iter(built.collection)).text
            if self.matches is None:
                return text
            marker, rate = self.matches
            if text.count(marker) == max(1, round(rate * size)):
                return text
        raise RuntimeError(f"{self.name}: no text of size {size} with the wanted matches")


WORKLOADS = {
    # Lines per log: 3k..49k characters, 0.5% ERROR lines.
    "logs-sparse": LibraryWorkload(
        "logs-sparse",
        "sparse-logs",
        (62, 125, 250, 500, 1000),
        (250, 1000, 4000),
        3.0,
        matches=(" ERROR worker-", 0.005),
    ),
    # Contact records: 0.9k..15k characters, a mapping every ~18 characters.
    "contacts-dense": LibraryWorkload(
        "contacts-dense", "contacts", (50, 100, 200, 400, 800), (100, 400, 1600), 4.5
    ),
    # Characters of a random ab-string: 0.6k..8.1k mappings each.
    "nested-output": LibraryWorkload(
        "nested-output", "nested", (10, 12, 14, 16, 20), (8, 16, 32), 3.3, delay_stride=4
    ),
}


def text_seed(run_seed: int, index: int) -> int:
    return run_seed * 100_003 + index


#: Rounds per pass; each round asks one new text per size, count and extract.
ROUNDS = 24
#: Share of the texts after the first round that the reference engine checks.
ORACLE_SHARE = 0.1


class Schedule:
    """The seeded requests of one run, ``(kind, text index)`` in order."""

    def __init__(self, workload: LibraryWorkload, seed: int) -> None:
        rng = random.Random(seed)
        self.workload = workload
        self.texts: list[str] = []
        self.requests: list[tuple[str, int]] = []
        #: Texts the reference engine checks: the first round, then a sample.
        self.oracle: set[int] = set()
        for round_index in range(ROUNDS):
            batch = []
            for size in workload.sizes:
                index = len(self.texts)
                self.texts.append(workload.text(size, text_seed(seed, index)))
                if round_index == 0 or rng.random() < ORACLE_SHARE:
                    self.oracle.add(index)
                batch += [("count", index), ("extract", index)]
            rng.shuffle(batch)
            self.requests += batch


def digest(contents: list[dict[str, str]]) -> tuple[int, int]:
    """An order-independent fingerprint of an extract result multiset."""
    return len(contents), sum(hash(frozenset(c.items())) for c in contents) & _MASK


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #


def count_request(spanner: Spanner, text: str):
    document = Document(text)
    start = time.perf_counter()
    result = spanner.count(document)
    return time.perf_counter() - start, result


def extract_request(spanner: Spanner, text: str):
    """Time one extract; also the first-mapping time and inter-mapping gaps."""
    document = Document(text)
    contents = []
    gaps = array("d")
    first = None
    start = previous = time.perf_counter()
    for mapping in spanner.enumerate(document):
        contents.append(mapping.contents(text))
        now = time.perf_counter()
        if first is None:
            first = now - start
        else:
            gaps.append(now - previous)
        previous = now
    return time.perf_counter() - start, contents, first, gaps


def traced_request(spanner: Spanner, kind: str, text: str, tracer: Tracer, request: int):
    """The default call split into its layer calls, one span around each.

    Same work as ``spanner.count``/``Spanner.extract`` with their defaults:
    alphabet lookup (compiling on a cache miss), class-id encoding, the
    ``kernel="auto"`` choice, then Algorithm 3, or Algorithm 1 plus
    Algorithm 2 with materialization.  The split costs one extra alphabet
    key (``frozenset`` of the text) in the ``alg1``/``alg3`` call, which
    ``trace.overhead`` includes.  Per-mapping ``contents`` time is summed
    into one ``materialize`` child span of ``alg2``.
    """
    root = tracer.open(f"request.{kind}", None, request)
    document = Document(text)
    span = tracer.open("compile", root, request)
    runtime = spanner.runtime(document)
    tracer.close(span)
    span = tracer.open("encode", root, request)
    encoded = runtime.encode(document)
    tracer.close(span)
    span = tracer.open("kernel", root, request)
    kernel = resolve_kernel(spanner.kernel, encoded)
    tracer.close(span)
    if kind == "count":
        span = tracer.open("alg3", root, request)
        result = spanner.count(encoded, kernel=kernel)
        tracer.close(span)
    else:
        span = tracer.open("alg1", root, request)
        dag = spanner.preprocess(encoded, kernel=kernel)
        tracer.close(span)
        span = tracer.open("alg2", root, request)
        contents = []
        materialize = 0.0
        for mapping in dag:
            before = time.perf_counter()
            contents.append(mapping.contents(text))
            materialize += time.perf_counter() - before
        tracer.close(span)
        began = tracer.spans[span][1]
        tracer.add("materialize", began, began + materialize, span, request)
        result = contents
    tracer.close(root)
    return result


# ---------------------------------------------------------------------- #
# Traffic
# ---------------------------------------------------------------------- #


@dataclass
class Record:
    """One request of one pass: its timings and its output."""

    index: int
    kind: str
    text_index: int
    chars: int
    seconds: float
    #: The count, or the extract result's :func:`digest`.
    result: object
    mappings: int = 0
    first: float | None = None
    gaps: array = field(default_factory=lambda: array("d"))


class Pass:
    """The requests of one traffic pass, in schedule order."""

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.records) + len(self.errors)


def run_traffic(spanner: Spanner, schedule: Schedule, tracer: Tracer | None = None) -> Pass:
    """One closed-loop pass over every request of *schedule*.

    Each request starts from an empty young heap (a collection before its
    timer starts), so it pays for the collections its own allocations
    cause, not for ones the previous request's garbage would trigger
    inside it.  Otherwise which small count requests a collection lands
    in depends on the seed, and the count tail moves with it.
    """
    done = Pass()
    stride = schedule.workload.delay_stride
    for index, (kind, text_index) in enumerate(schedule.requests):
        text = schedule.texts[text_index]
        first, gaps = None, array("d")
        gc.collect()
        try:
            if tracer is not None:
                start = time.perf_counter()
                result = traced_request(spanner, kind, text, tracer, index)
                elapsed = time.perf_counter() - start
            elif kind == "count":
                elapsed, result = count_request(spanner, text)
            else:
                elapsed, result, first, gaps = extract_request(spanner, text)
        except Exception as error:  # counted against error_ratio, run goes on
            done.errors.append(f"request {index} ({kind}): {error!r}")
            continue
        record = Record(index, kind, text_index, len(text), elapsed, result)
        if kind == "extract":
            record.mappings = len(result)
            record.result = digest(result)
            record.first = first
            record.gaps = gaps[::stride]
        done.records.append(record)
    return done


class Replays:
    """Per request, its fastest replay so far; passes are folded in and dropped.

    The passes run the same requests seconds apart.  On a shared machine
    other tenants slow a process by up to ~2x for seconds at a time, so
    a request's best time is its cost with that interference filtered out;
    a change to the program still moves every pass alike.  Each pass is
    folded in as soon as it ends, so memory does not grow with the number
    of passes; a replay whose output differs from the first one's is a
    problem.
    """

    def __init__(self) -> None:
        self.best: dict[int, Record] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.pass_mchars_s: list[float] = []

    def add(self, one: Pass) -> None:
        self.attempted += one.attempted
        self.problems += one.errors
        self.pass_mchars_s.append(round(throughput_mchars_s(one.records), 4))
        for record in one.records:
            best = self.best.get(record.index)
            if best is None:
                self.best[record.index] = record
            elif record.result != best.result:
                self.problems.append(
                    f"request {record.index} ({record.kind}): replay gave {record.result},"
                    f" first gave {best.result}"
                )
            else:
                best.seconds = min(best.seconds, record.seconds)
                if best.first is not None:
                    best.first = min(best.first, record.first)
                    best.gaps = array("d", map(min, best.gaps, record.gaps))

    def records(self) -> list[Record]:
        return list(self.best.values())


def check_outputs(workload: LibraryWorkload, schedule: Schedule, records: list[Record]) -> list[str]:
    """Cross-check counts against extracts, and both against the reference.

    The reference engine (the paper's algorithms in ``repro.enumeration``)
    runs on the seeded oracle sample of texts, outside any timed region;
    other texts are checked for agreement between all their requests.
    """
    reference = Spanner(workload.pattern(), engine="reference")
    problems = []
    digests: dict[int, list[tuple[int, int]]] = {}
    counts: dict[int, list[int]] = {}
    for record in records:
        target = digests if record.kind == "extract" else counts
        target.setdefault(record.text_index, []).append(record.result)
    for text_index in sorted(set(counts) | set(digests)):
        if text_index in schedule.oracle:
            text = schedule.texts[text_index]
            expected = digest([m.contents(text) for m in reference.enumerate(text)])
        elif text_index in digests:
            expected = digests[text_index][0]
        else:
            expected = (counts[text_index][0], None)
        for got in digests.get(text_index, []):
            if got != expected:
                problems.append(f"text {text_index}: extract digest {got} != {expected}")
        for got in counts.get(text_index, []):
            if got != expected[0]:
                problems.append(f"text {text_index}: count {got} != {expected[0]}")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def throughput_mchars_s(records: list[Record]) -> float:
    return sum(r.chars for r in records) / sum(r.seconds for r in records) / 1e6


def end_to_end(records: list[Record]) -> dict[str, float]:
    extract = [r for r in records if r.kind == "extract"]
    count = [r.seconds for r in records if r.kind == "count"]
    first = [r.first for r in extract if r.first is not None]
    gaps = array("d")
    for record in extract:
        gaps.extend(record.gaps)
    return {
        "throughput_mchars_s": throughput_mchars_s(records),
        "mappings_per_s": sum(r.mappings for r in extract) / sum(r.seconds for r in extract),
        "extract_ms_p50": median([r.seconds for r in extract]) * 1e3,
        "extract_ms_p90": percentile([r.seconds for r in extract], 90) * 1e3,
        "count_ms_p50": median(count) * 1e3,
        "count_ms_p90": percentile(count, 90) * 1e3,
        "first_mapping_ms_p50": median(first) * 1e3,
        "delay_us_p50": median(gaps) * 1e6,
        "delay_us_p90": percentile(gaps, 90) * 1e6,
        "delay_us_p99": percentile(gaps, 99) * 1e6,
    }


def sample_counts(records: list[Record]) -> dict[str, int]:
    extract = [r for r in records if r.kind == "extract"]
    return {
        "count": len(records) - len(extract),
        "extract": len(extract),
        "first_mapping": sum(r.first is not None for r in extract),
        "delay": sum(len(r.gaps) for r in extract),
    }


# ---------------------------------------------------------------------- #
# Layer probe: each layer's public call timed on its own
# ---------------------------------------------------------------------- #

_BUCKETS = ("1x", "4x", "16x")
_PROBE_DOCS = 3
_REPEATS = 3
_DELAY_SAMPLES = 4000
_MATERIALIZE_SAMPLES = 20000


def _best(call, repeats: int = _REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _probe_texts(workload: LibraryWorkload, seed: int) -> list[list[str]]:
    """Per sweep size, fresh texts with at least one mapping (so delays exist)."""
    counter = Spanner(workload.pattern())
    buckets = []
    index = 90_000
    for size in workload.sweep:
        texts = []
        while len(texts) < _PROBE_DOCS:
            text = workload.text(size, text_seed(seed, index))
            index += 1
            if counter.count(text) > 0:
                texts.append(text)
        buckets.append(texts)
    return buckets


def layer_probe(workload: LibraryWorkload, seed: int) -> dict[str, float]:
    """Per-layer numbers on a 1x/4x/16x sweep of fresh texts.

    Algorithm 1, 2 and 3 calls get an already-encoded document so encoding
    does not blur them, and each timing is the best of a few repeats so the
    layer's own cost, not scheduler noise, is reported.
    """
    spanner = Spanner(workload.pattern())
    buckets = _probe_texts(workload, seed)
    metrics: dict[str, float] = {}
    chars = encode_time = alg3_time = 0.0
    choice: list[float] = []
    runlength = cells = 0
    alg1_by_bucket = []
    p99_by_bucket = []
    materialize_time = materialized = 0.0
    kernel_time = {"auto": 0.0, "scalar": 0.0, "runlength": 0.0}
    passes = calls = 0
    for bucket, texts in zip(_BUCKETS, buckets):
        alg1_time = alg1_chars = 0.0
        delays: list[float] = []
        for text in texts:
            runtime = spanner.runtime(text)  # compile outside every timing
            chars += len(text)
            encode_time += _best(lambda: runtime.encode(Document(text)))
            fresh = [runtime.encode(Document(text)) for _ in range(_REPEATS)]
            choice.append(min(_timed(resolve_kernel, "auto", enc) for enc in fresh))
            encoded = fresh[0]
            kernel = resolve_kernel("auto", encoded)
            runlength += kernel == "runlength"
            alg1_time += _best(lambda: spanner.preprocess(encoded, kernel=kernel))
            alg1_chars += len(text)
            dag = spanner.preprocess(encoded, kernel=kernel)
            cells += dag.num_nodes() + len(dag.cell_nodes)
            alg3_time += _best(lambda: spanner.count(encoded, kernel=kernel))
            delays.extend(_next_delays(dag))
            mappings = []
            for mapping in dag:
                mappings.append(mapping)
                if len(mappings) >= _MATERIALIZE_SAMPLES:
                    break
            start = time.perf_counter()
            for mapping in mappings:
                mapping.contents(text)
            materialize_time += time.perf_counter() - start
            materialized += len(mappings)
            for name in kernel_time:
                choice_kernel = None if name == "auto" else name
                kernel_time[name] += _best(
                    lambda: spanner.count(Document(text), kernel=choice_kernel)
                )
            before = encoding.encoding_passes()
            spanner.count(Document(text))
            spanner.extract(Document(text))
            passes += encoding.encoding_passes() - before
            calls += 2
        alg1_by_bucket.append(alg1_time / alg1_chars * 1e9)
        metrics[f"alg1.ns_per_char.{bucket}"] = alg1_by_bucket[-1]
        metrics[f"alg2.delay_us_p50.{bucket}"] = median(delays) * 1e6
        p99_by_bucket.append(percentile(delays, 99) * 1e6)
        metrics[f"alg2.delay_us_p99.{bucket}"] = p99_by_bucket[-1]
    metrics["alg1.linearity"] = alg1_by_bucket[-1] / alg1_by_bucket[0]
    metrics["alg2.flatness"] = p99_by_bucket[-1] / p99_by_bucket[0]
    metrics["alg1.arena_cells_per_char"] = cells / chars
    metrics["alg3.ns_per_char"] = alg3_time / chars * 1e9
    metrics["encode.ns_per_char"] = encode_time / chars * 1e9
    metrics["encode.passes_per_request"] = passes / calls
    metrics["kernel.choice_ms"] = sum(choice) / len(choice) * 1e3
    metrics["kernel.runlength_share"] = runlength / len(choice)
    metrics["kernel.auto_vs_best"] = kernel_time["auto"] / min(
        kernel_time["scalar"], kernel_time["runlength"]
    )
    metrics["materialize.us_per_mapping"] = materialize_time / materialized * 1e6
    return metrics


def _timed(function, *args) -> float:
    start = time.perf_counter()
    function(*args)
    return time.perf_counter() - start


def _next_delays(dag) -> list[float]:
    """Bare ``next()`` times on the arena iterator, re-iterating small arenas."""
    delays: list[float] = []
    clock = time.perf_counter
    while len(delays) < _DELAY_SAMPLES:
        iterator = iter(dag)
        while len(delays) < _DELAY_SAMPLES:
            start = clock()
            try:
                next(iterator)
            except StopIteration:
                break
            delays.append(clock() - start)
    return delays


SELF_LAYERS = ("compile", "encode", "kernel", "alg1", "alg2", "alg3", "materialize")


def self_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time as a share of all traced request time.

    The spans come from traffic passes on fresh spanners, so compiling for
    a new alphabet is counted where real traffic would pay for it.
    """
    own = tracer.self_seconds()
    total = sum(tracer.durations("request.count")) + sum(tracer.durations("request.extract"))
    return {f"self_share.{name}": own.get(name, 0.0) / total for name in SELF_LAYERS}


def compile_stages(pattern: str, text: str) -> dict[str, float]:
    """Per-stage compile times of a fresh spanner, from ``CompilationReport``."""
    spanner = Spanner(pattern)
    spanner.runtime(text)
    stages = {
        "regex→VA": "compile.regex_to_va_ms",
        "VA→eVA": "compile.va_to_eva_ms",
        "trim": "compile.trim_ms",
        "determinize": "compile.determinize_ms",
        "relabel": "compile.determinize_ms",
        "intern": "compile.intern_ms",
    }
    metrics = dict.fromkeys(stages.values(), 0.0)
    for stage in spanner.compilation_report(text).stages:
        if stage.name in stages:
            metrics[stages[stage.name]] += stage.seconds * 1e3
    return metrics


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #

_SETUP_CODE = (
    "import sys\n"
    "from repro import Document, Spanner\n"
    "document = Document(open(sys.argv[2], encoding='utf-8').read())\n"
    "spanner = Spanner(sys.argv[1])\n"
    "spanner.plan(document)\n"
    "spanner.runtime(document)\n"
    "print('ready', flush=True)\n"
)
#: Fewest replays of the requests in an untraced run; see :class:`Replays`.
MIN_PASSES = 3


def setup_seconds(pattern: str, path: str) -> float:
    """Time from spawning an interpreter to a spanner compiled for the text at *path*."""
    return fresh_interpreter_seconds(_SETUP_CODE, pattern, path)


def run_library(workload: LibraryWorkload, seed: int, seconds: float, trace: bool) -> dict:
    """One run: untraced end-to-end metrics, or (traced) per-layer metrics.

    Every pass starts from a fresh spanner, as a new user process would,
    so alphabet-cache misses recur identically in each pass.
    """
    pattern = workload.pattern()
    schedule = Schedule(workload, seed)
    # What is alive now lives to the end of the run; frozen, the collection
    # before every request (see run_traffic) skips it.
    gc.freeze()
    if not trace:
        OUT_DIR.mkdir(exist_ok=True)
        first = OUT_DIR / f"first-document-{workload.name}.txt"
        first.write_text(schedule.texts[0], encoding="utf-8")
        # One set-up sample before each pass and one after the last: spread
        # over the run, a slow stretch of a shared host at its start does
        # not decide setup_s.
        setup = []
        replays = Replays()
        try:
            for step in range(max(MIN_PASSES, round(seconds / workload.pass_seconds))):
                unpin()
                setup.append(setup_seconds(pattern, str(first)))
                rotate_cpus(step)
                replays.add(run_traffic(Spanner(pattern), schedule))
        finally:
            unpin()
        setup.append(setup_seconds(pattern, str(first)))
        best = replays.records()
        metrics = end_to_end(best)
        metrics["setup_s"] = median(setup)
        metrics["peak_rss_mb"] = peak_rss_mb()
        return {
            "metrics": metrics,
            "attempted": replays.attempted,
            "problems": replays.problems + check_outputs(workload, schedule, best),
            "samples": {
                **sample_counts(best),
                "setup": len(setup),
                "pass_mchars_s": replays.pass_mchars_s,
            },
            "spans": [],
        }
    from serving import serve_probe

    # Traced run: untraced and traced passes over the same requests,
    # alternating, each on a fresh spanner; the overhead compares their
    # best-of throughputs, and the traced passes' spans give the self shares.
    cold = Spanner(pattern)
    tracer = Tracer()
    plain, traced = Replays(), Replays()
    plain.add(run_traffic(cold, schedule))
    traced.add(run_traffic(Spanner(pattern), schedule, tracer))
    plain.add(run_traffic(Spanner(pattern), schedule))
    traced.add(run_traffic(Spanner(pattern), schedule, tracer))
    probe_texts = [workload.text(workload.sweep[0], text_seed(seed, 95_000 + i)) for i in range(3)]
    serve, serve_problems, sessions = serve_probe(pattern, probe_texts, seed, tracer)
    best = plain.records()
    metrics = {
        "import.repro_s": import_seconds("repro"),
        "import.repro_cli_s": import_seconds("repro.cli"),
        **compile_stages(pattern, schedule.texts[0]),
        "compile.cache_misses": float(cold.cache_stats().misses),
        **layer_probe(workload, seed),
        **self_shares(tracer),
        **serve,
        "trace.overhead": throughput_mchars_s(best) / throughput_mchars_s(traced.records()),
    }
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted + sessions,
        "problems": plain.problems
        + traced.problems
        + check_outputs(workload, schedule, best + traced.records())
        + serve_problems,
        "samples": {**sample_counts(best), "serve_probe_sessions": sessions},
        "spans": tracer.spans,
    }
