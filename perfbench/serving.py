"""The serve probe of the traced runs.

``python -m repro serve --port 0`` runs with its default flags in a child
process.  The generator is an open loop: seeded exponential arrivals at one
fixed rate, at most :data:`MAX_IN_FLIGHT` sessions at once; arrivals beyond
that wait in the generator, and every latency is timed from the arrival's
due time.  Each session streams one of the workload's texts in 1 KiB chunks
with ``emit="incremental"`` and reads mapping events as they arrive.
"""

from __future__ import annotations

import asyncio
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import Spanner
from repro.server.client import StreamClient, fetch_json
from repro.server.service import DEFAULT_SERVE_ALPHABET

from common import ROOT, Tracer, child_env, median, percentile

#: Sessions per second, frozen.  At the seed commit on a 2-core runner the
#: slowest probe sessions (nested-output, ~500 mapping events each) took
#: ~20 ms from connect to ``done`` (logs-sparse ~4 ms, contacts-dense
#: ~14 ms), so two connections could carry ~100 sessions/s; at a fifth of
#: that, sessions seldom wait for a slot, and the spans show service time
#: rather than queueing.
PROBE_RATE_PER_S = 20.0
PROBE_SECONDS = 3.0
MAX_IN_FLIGHT = 2
CHUNK_CHARS = 1024

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class ServerProcess:
    """``repro serve`` with default flags in a child process."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        line = self.process.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process.stderr.close()


def mapping_key(spans: dict) -> tuple:
    return tuple(sorted((variable, tuple(span)) for variable, span in spans.items()))


@dataclass
class Session:
    due: float
    doc: int
    started: float = 0.0
    ready: float = 0.0
    fed: float = 0.0
    finished: float = 0.0
    done: float = 0.0
    arrivals: list[float] = field(default_factory=list)
    mappings: Counter = field(default_factory=Counter)
    events: int = 0
    error: str | None = None


async def run_session(host, port, pattern, chunks, session: Session) -> None:
    session.started = time.perf_counter()
    client = await StreamClient.open(host, port, pattern, emit="incremental")
    if client.status != 200:
        session.error = f"status {client.status}: {client.error_body}"
        return
    session.ready = time.perf_counter()

    async def read_events() -> None:
        while True:
            event = await client.read_event()
            if event is None:
                return
            now = time.perf_counter()
            session.events += 1
            if "mapping" in event:
                session.arrivals.append(now)
                session.mappings[mapping_key(event["mapping"])] += 1
            elif event.get("done"):
                session.done = now
                if event.get("mappings") != len(session.arrivals):
                    session.error = f"done reports {event.get('mappings')} mappings"
            elif "error" in event:
                session.error = f"in-band error: {event['error']}"

    reader = asyncio.create_task(read_events())
    try:
        for piece in chunks:
            await client.feed(piece)
        session.fed = time.perf_counter()
        # StreamClient.finish() would also drain the response, which the
        # reader task is already doing, so only the request side is closed.
        await client._send_event({"finish": True})
        await client._close_body()
        session.finished = time.perf_counter()
        await reader
    finally:
        if not reader.done():
            reader.cancel()
        await client.close()
    if not session.done and session.error is None:
        session.error = "no done event"


def arrivals(seed: int, sessions: int, rate: float, docs: int) -> list[tuple[float, int]]:
    """Seeded exponential arrival offsets, each with the document it streams."""
    rng = random.Random(seed)
    schedule = []
    offset = 0.0
    for _ in range(sessions):
        offset += rng.expovariate(rate)
        schedule.append((offset, rng.randrange(docs)))
    return schedule


async def open_loop(server: ServerProcess, pattern, chunked, schedule) -> tuple[list[Session], list[float]]:
    """Send every scheduled session at its due time; returns sessions and lags."""
    slots = asyncio.Semaphore(MAX_IN_FLIGHT)
    sessions: list[Session] = []
    tasks = []
    lags = []

    async def guarded(session: Session) -> None:
        async with slots:
            try:
                await run_session(server.host, server.port, pattern, chunked[session.doc], session)
            except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                session.error = repr(error)

    start = time.perf_counter()
    for offset, doc in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        session = Session(due, doc)
        sessions.append(session)
        tasks.append(asyncio.create_task(guarded(session)))
    await asyncio.gather(*tasks)
    return sessions, lags


def chunk(text: str) -> list[str]:
    return [text[begin : begin + CHUNK_CHARS] for begin in range(0, len(text), CHUNK_CHARS)]


def direct_spanner(pattern: str) -> Spanner:
    """A spanner compiled for the serve alphabet, so later timings exclude it."""
    spanner = Spanner(pattern)
    spanner.stream(alphabet=DEFAULT_SERVE_ALPHABET).finish()
    return spanner


def direct(spanner: Spanner, chunks: list[str]) -> tuple[float, Counter]:
    """The same chunks through an in-process ``Spanner.stream`` (the oracle)."""
    start = time.perf_counter()
    evaluator = spanner.stream(
        alphabet=DEFAULT_SERVE_ALPHABET, emit="incremental", retain_settled=False
    )
    found = []
    for piece in chunks:
        found.extend(evaluator.feed(piece))
    found.extend(evaluator.finish().residual)
    elapsed = time.perf_counter() - start
    return elapsed, Counter(
        mapping_key({v: (s.begin, s.end) for v, s in m.items()}) for m in found
    )


def check_sessions(sessions: list[Session], expected: list[Counter]) -> list[str]:
    problems = []
    for index, session in enumerate(sessions):
        if session.error is not None:
            problems.append(f"session {index}: {session.error}")
        elif session.mappings != expected[session.doc]:
            problems.append(f"session {index}: mappings differ from Spanner.stream")
    return problems


def trace_sessions(sessions: list[Session], tracer: Tracer) -> None:
    """Client-side spans of finished sessions: open, feed, finish → done."""
    for index, s in enumerate(sessions):
        if s.error is not None:
            continue
        root = tracer.add("serve.session", s.started, s.done, None, index)
        tracer.add("serve.open", s.started, s.ready, root, index)
        tracer.add("serve.feed", s.ready, s.fed, root, index)
        tracer.add("serve.finish", s.finished, s.done, root, index)


async def _counters(server: ServerProcess) -> dict:
    _status, body = await fetch_json(server.host, server.port, "/metrics")
    return {
        "hits": body["plan_cache"]["hits"],
        "misses": body["plan_cache"]["misses"],
        "rejected": body["sessions"]["rejected"],
        "failed": body["sessions"]["failed"],
    }


async def drive(server: ServerProcess, pattern, chunked, schedule):
    """One open-loop pass with ``/metrics`` counters read around it."""
    before = await _counters(server)
    sessions, lags = await open_loop(server, pattern, chunked, schedule)
    after = await _counters(server)
    delta = {key: after[key] - before[key] for key in before}
    return sessions, lags, delta


async def first_session(server: ServerProcess, pattern: str) -> None:
    client = await StreamClient.open(server.host, server.port, pattern, emit="incremental")
    if client.status != 200:
        raise RuntimeError(f"first session refused: {client.status} {client.error_body}")
    await client.finish()
    await client.close()


def start_server(pattern: str) -> ServerProcess:
    """Spawn the server and open the first session."""
    server = ServerProcess()
    try:
        asyncio.run(first_session(server, pattern))
    except BaseException:
        server.stop()
        raise
    return server


def serve_probe(pattern: str, texts: list[str], seed: int, tracer: Tracer):
    """A short open loop through a fresh server carrying a workload's texts.

    Returns the serve metrics, the sessions whose mappings differ from an
    in-process ``Spanner.stream`` on the same chunks, and the session
    count; the sessions' client-side spans go to *tracer*.
    """
    chunked = [chunk(text) for text in texts]
    spanner = direct_spanner(pattern)
    oracle = [direct(spanner, pieces) for pieces in chunked]
    schedule = arrivals(seed, round(PROBE_SECONDS * PROBE_RATE_PER_S), PROBE_RATE_PER_S, len(texts))
    server = start_server(pattern)
    try:
        sessions, lags, delta = asyncio.run(drive(server, pattern, chunked, schedule))
    finally:
        server.stop()
    problems = check_sessions(sessions, [found for _t, found in oracle])
    trace_sessions(sessions, tracer)
    finished = [s for s in sessions if s.error is None]
    service = [s.done - s.started for s in finished]
    latency = [s.done - s.due for s in finished]
    direct_ms = median([t for t, _f in oracle]) * 1e3
    lookups = delta["hits"] + delta["misses"]
    return {
        "serve.open_ms": median(tracer.durations("serve.open")) * 1e3,
        "serve.feed_ms": median(tracer.durations("serve.feed")) * 1e3,
        "serve.finish_ms": median(tracer.durations("serve.finish")) * 1e3,
        "serve.events_per_session": sum(s.events for s in sessions) / len(sessions),
        "serve.plan_cache_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "serve.sessions_rejected": float(delta["rejected"]),
        "serve.sessions_failed": float(delta["failed"]),
        "serve.direct_ms": direct_ms,
        "serve.transport_share": 1.0 - direct_ms / (median(service) * 1e3),
        "gen.lag_ms_p99": percentile(lags, 99) * 1e3,
        "session_ms_p50": median(latency) * 1e3,
        "session_ms_p99": percentile(latency, 99) * 1e3,
    }, problems, len(sessions)
