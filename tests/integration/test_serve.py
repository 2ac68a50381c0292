"""End-to-end tests of the ``repro serve`` subsystem.

Boots the real asyncio server on an ephemeral port inside each test and
drives it with the reference :class:`~repro.server.client.StreamClient`:

* **equivalence** — a session's emitted mappings match a direct
  :meth:`Spanner.stream` run over the same adversarial chunkings
  (including the delivered-then-retracted conflicts incremental mode may
  legitimately refuse, which the server must surface as in-band
  ``streaming`` errors, not wrong answers);
* **shared-cache eviction** — a plan cache under pressure evicts while
  sessions holding the evicted entries are still feeding, without
  corrupting them;
* **admission control** — opens past the session cap get 429 +
  ``Retry-After`` and the slot frees on session close;
* **/metrics** — the plan-cache hit ratio is visible after the second
  identical request, gauges return to zero, idle sessions expire;
* **off-loop compilation** — a slow compile stalls only its own open,
  and a pattern whose subset construction blows up (131,077 subsets)
  streams to ``done`` like any other, with ``/healthz`` answering
  meanwhile.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro import Spanner
from repro.server import ReproServer, ServerConfig, SpannerService, StreamClient
from repro.server.client import fetch_json
from repro.server.service import AdmissionError

from harness import adversarial_chunkings, adversarial_documents

PATTERN = ".*x{a+b}.*"
#: 23 sequential states, 131,077 subsets, built only as text reaches them.
BLOWUP_PATTERN = ".*a" + "." * 16 + "x{b}.*"


def serve(config: ServerConfig):
    """Decorator-style runner: build service+server, run the body, close."""

    def run(body):
        async def main():
            service = SpannerService(config)
            server = ReproServer(service)
            await server.start()
            try:
                return await body(server, service)
            finally:
                await server.close()

        return asyncio.run(main())

    return run


def span_set(events):
    """Canonical mapping set from the server's NDJSON mapping events."""
    return frozenset(
        json.dumps(event["mapping"], sort_keys=True)
        for event in events
        if "mapping" in event
    )


def direct_outcome(pattern: str, alphabet: str, chunks):
    """What Spanner.stream does on the same feed: the mapping set."""
    spanner = Spanner.from_regex(pattern)
    evaluator = spanner.stream(alphabet=alphabet, emit="incremental")
    collected = []
    for chunk in chunks:
        collected.extend(evaluator.feed(chunk))
    collected.extend(evaluator.finish().residual)
    return frozenset(
        json.dumps(
            {var: [span.begin, span.end] for var, span in mapping.items()},
            sort_keys=True,
        )
        for mapping in collected
    )


class TestEquivalence:
    def test_sessions_match_direct_streaming_over_adversarial_chunkings(self):
        documents = [doc for doc in adversarial_documents(seed=3) if doc]
        config = ServerConfig(port=0, idle_timeout=30.0, plan_cache_size=16)

        @serve(config)
        async def _(server, service):
            for text in documents:
                alphabet = "".join(sorted(set(text)))
                for label, chunks in adversarial_chunkings(text, seed=7):
                    if label.startswith("bytes-"):
                        continue  # the JSON protocol carries decoded text
                    expected = direct_outcome(PATTERN, alphabet, chunks)
                    client = await StreamClient.open(
                        server.config.host, server.port, PATTERN, alphabet=alphabet
                    )
                    assert client.status == 200, client.error_body
                    for chunk in chunks:
                        await client.feed(chunk)
                    events = await client.finish()
                    await client.close()
                    errors = [e for e in events if "error" in e]
                    assert not errors, f"doc={text!r} chunking={label!r}: {errors}"
                    assert events[-1]["done"] is True
                    got = span_set(events)
                    assert got == expected, (
                        f"doc={text!r} chunking={label!r}: server={sorted(got)} "
                        f"direct={sorted(expected)}"
                    )

    def test_on_finish_mode_delivers_everything_unsettled(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN,
                alphabet="ab", emit="on_finish",
            )
            await client.feed("aa")
            await client.feed("ba")
            events = await client.finish()
            await client.close()
            mapping_events = [e for e in events if "mapping" in e]
            assert mapping_events, events
            assert all(e["settled"] is False for e in mapping_events)
            incremental = direct_outcome(PATTERN, "ab", ["aa", "ba"])
            assert span_set(events) == incremental


class TestSharedCacheEviction:
    def test_eviction_under_pressure_keeps_in_flight_sessions_correct(self):
        # Three distinct patterns through a 2-entry cache: opening the
        # third evicts the first while its session is still feeding.
        patterns = [".*x{a+b}.*", ".*y{ab+}.*", ".*z{aab}.*"]
        config = ServerConfig(port=0, plan_cache_size=2)

        @serve(config)
        async def _(server, service):
            clients = []
            for pattern in patterns:
                clients.append(
                    await StreamClient.open(
                        server.config.host, server.port, pattern, alphabet="ab"
                    )
                )
            assert all(client.status == 200 for client in clients)
            stats = service.plan_cache.stats()
            assert stats.evictions >= 1
            assert stats.entries <= 2

            # Every session — including the one whose entry was evicted —
            # still evaluates correctly on text fed *after* the eviction.
            text = "aabba"
            for client, pattern in zip(clients, patterns):
                await client.feed(text[:3])
                await client.feed(text[3:])
            for client, pattern in zip(clients, patterns):
                events = await client.finish()
                await client.close()
                assert events[-1]["done"] is True, (pattern, events)
                expected = direct_outcome(pattern, "ab", [text])
                assert span_set(events) == expected, pattern

            # Reopening the evicted pattern simply recompiles: a miss,
            # not an error.
            reopened = await StreamClient.open(
                server.config.host, server.port, patterns[0], alphabet="ab"
            )
            assert reopened.status == 200
            assert reopened.ready["plan_cache"] in ("hit", "miss")
            await reopened.finish()
            await reopened.close()


class TestAdmissionControl:
    def test_rejects_past_cap_and_recovers(self):
        config = ServerConfig(port=0, max_sessions=2)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            first = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            second = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            assert (first.status, second.status) == (200, 200)

            third = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            assert third.status == 429
            assert "session cap" in third.error_body["error"]
            # The default AdmissionError carries retry_after=1.0: the header
            # must be exactly its integer form, and the machine-readable
            # value rides in the body.
            assert third.headers["retry-after"] == "1"
            assert third.error_body["retry_after"] == 1.0
            assert service.metrics.snapshot()["sessions"]["rejected"] == 1

            # Finishing one session frees its admission slot.
            await first.finish()
            await first.close()
            retry = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            assert retry.status == 200
            await retry.finish()
            await second.finish()
            await retry.close()
            await second.close()
            assert service.active_sessions == 0

    def test_retry_after_header_rounds_up(self):
        # Retry-After is delta-seconds: a fractional backoff must round
        # *up* (0.3s -> "1", 1.2s -> "2"), never truncate to a header
        # that invites retrying before the window reopens.
        config = ServerConfig(port=0, max_sessions=2)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            for backoff, expected in [(0.3, "1"), (1.0, "1"), (1.2, "2"), (4.0, "4")]:

                def reject(request, _backoff=backoff):
                    raise AdmissionError("session cap reached", retry_after=_backoff)

                original = service.open_session
                service.open_session = reject
                try:
                    client = await StreamClient.open(
                        host, server.port, PATTERN, alphabet="ab"
                    )
                finally:
                    service.open_session = original
                assert client.status == 429
                assert client.headers["retry-after"] == expected, backoff
                assert client.error_body["retry_after"] == backoff

    def test_session_byte_cap_surfaces_in_band(self):
        config = ServerConfig(port=0, max_session_bytes=8)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN, alphabet="ab"
            )
            await client.feed("abab")
            await client.feed("ababab")  # 10 bytes total > 8
            events = await client.finish()
            await client.close()
            errors = [e for e in events if e.get("code") == "too_large"]
            assert errors and "per-session cap" in errors[0]["error"]
            assert service.metrics.snapshot()["sessions"]["failed"] == 1

    def test_session_arena_cell_cap_surfaces_in_band(self):
        # A tiny cell budget trips the resource guard once the evaluator
        # has accumulated live arena state; the session fails with a typed
        # in-band event instead of an opaque disconnect.
        config = ServerConfig(port=0, max_session_arena_cells=2)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN, alphabet="ab"
            )
            for _ in range(6):
                await client.feed("aaaa")
            events = await client.finish()
            await client.close()
            errors = [e for e in events if e.get("code") == "resource_limit"]
            assert errors and "arena cells" in errors[0]["error"]
            assert service.metrics.snapshot()["sessions"]["failed"] == 1
            resilience = service.metrics.snapshot()["resilience"]
            assert resilience["resource_limit_trips"] >= 1


class TestMetricsEndpoint:
    def test_plan_cache_hit_ratio_positive_on_second_identical_request(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            for expected_outcome in ("miss", "hit"):
                client = await StreamClient.open(
                    host, server.port, PATTERN, alphabet="ab"
                )
                assert client.ready["plan_cache"] == expected_outcome
                await client.feed("aab")
                await client.finish()
                await client.close()

            status, metrics = await fetch_json(host, server.port, "/metrics")
            assert status == 200
            assert metrics["plan_cache"]["hit_ratio"] > 0
            assert metrics["plan_cache"]["hits"] == 1
            assert metrics["sessions"]["opened"] == 2
            assert metrics["sessions"]["active"] == 0
            assert metrics["sessions"]["peak_active"] == 1
            assert metrics["data"]["mappings_emitted"] > 0
            assert metrics["requests_total"] >= 2
            assert metrics["latency_seconds"]["recorded"] >= 2

    def test_healthz(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            status, body = await fetch_json(
                server.config.host, server.port, "/healthz"
            )
            assert (status, body) == (200, {"status": "ok"})

    def test_idle_session_expires_with_in_band_error(self):
        config = ServerConfig(port=0, idle_timeout=0.2)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN, alphabet="ab"
            )
            assert client.status == 200
            # Send nothing: the server must time the session out on its own.
            event = await client.read_event()
            assert event["code"] == "idle_timeout"
            await client.close()
            assert service.metrics.snapshot()["sessions"]["expired"] == 1
            assert service.active_sessions == 0


class TestHttpErrors:
    @staticmethod
    async def raw_exchange(host, port, payload: bytes) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(payload)
        await writer.drain()
        from repro.server.client import _read_head

        status, headers = await _read_head(reader)
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b"{}"
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return status, json.loads(body)

    def test_malformed_pattern_is_400(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, "x{", alphabet="ab"
            )
            assert client.status == 400
            assert "expected" in client.error_body["error"]

    def test_bad_opening_json_is_400(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            body = b"this is not json\n"
            status, payload = await self.raw_exchange(
                server.config.host,
                server.port,
                b"POST /v1/stream HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            assert status == 400
            assert "not valid JSON" in payload["error"]

    def test_unknown_path_is_404_and_wrong_method_405(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            status, payload = await fetch_json(host, server.port, "/nope")
            assert status == 404
            status, payload = await self.raw_exchange(
                host,
                server.port,
                b"GET /v1/stream HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            assert status == 405

    def test_unknown_emit_mode_is_400(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN,
                alphabet="ab", emit="sometimes",
            )
            assert client.status == 400
            assert "unknown emit mode" in client.error_body["error"]


class TestConcurrency:
    def test_interleaved_sessions_do_not_cross_talk(self):
        # Two patterns, four sessions, feeds interleaved through the
        # shared loop: every session must see exactly its own results.
        config = ServerConfig(port=0, max_sessions=8)
        jobs = [
            (".*x{a+b}.*", "aabab"),
            (".*y{ab+}.*", "babba"),
            (".*x{a+b}.*", "bbaab"),
            (".*y{ab+}.*", "ababa"),
        ]

        @serve(config)
        async def _(server, service):
            async def run_job(pattern, text):
                client = await StreamClient.open(
                    server.config.host, server.port, pattern, alphabet="ab"
                )
                for char in text:
                    await client.feed(char)
                events = await client.finish()
                await client.close()
                return span_set(events)

            results = await asyncio.gather(
                *(run_job(pattern, text) for pattern, text in jobs)
            )
            for (pattern, text), got in zip(jobs, results):
                expected = direct_outcome(pattern, "ab", [text])
                assert got == expected, (pattern, text)
            assert service.metrics.snapshot()["sessions"]["peak_active"] >= 2


class TestOffLoopCompilation:
    def test_slow_open_does_not_stall_an_open_session(self, monkeypatch):
        slow_pattern = ".*y{ab}.*"
        building = threading.Event()
        build_entry = SpannerService._build_entry

        def slow_build_entry(self, request):
            if request.pattern == slow_pattern:
                building.set()
                time.sleep(1.0)
            return build_entry(self, request)

        monkeypatch.setattr(SpannerService, "_build_entry", slow_build_entry)
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            fast = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            assert fast.status == 200
            slow_open = asyncio.create_task(
                StreamClient.open(host, server.port, slow_pattern, alphabet="ab")
            )
            assert await asyncio.to_thread(building.wait, 5.0)
            started = time.perf_counter()
            await fast.feed("aaba")  # settles x=[1,3] and x=[0,3]
            event = await fast.read_event()
            elapsed = time.perf_counter() - started
            assert event["mapping"] == {"x": [1, 3]}
            assert not slow_open.done()
            assert elapsed < 0.5, f"feed round-trip took {elapsed:.3f}s"
            await fast.finish()
            await fast.close()
            slow = await slow_open
            assert slow.status == 200
            await slow.finish()
            await slow.close()

    def test_blowup_pattern_streams_to_done(self):
        config = ServerConfig(port=0)
        chunks = ["ab" * 10, "ab" * 10 + "b"]

        @serve(config)
        async def _(server, service):
            host = server.config.host
            opening = asyncio.create_task(
                StreamClient.open(host, server.port, BLOWUP_PATTERN, alphabet="ab")
            )
            status, body = await fetch_json(host, server.port, "/healthz")
            assert (status, body) == (200, {"status": "ok"})
            client = await opening
            assert client.status == 200, client.error_body
            for chunk in chunks:
                await client.feed(chunk)
            events = await client.finish()
            await client.close()
            assert events[-1].get("done") is True, events[-1]
            assert not [event for event in events if "error" in event]
            assert span_set(events) == direct_outcome(BLOWUP_PATTERN, "ab", chunks)
            status, metrics = await fetch_json(host, server.port, "/metrics")
            assert status == 200
            assert metrics["plan_cache"]["build_failures"] == 0
            assert metrics["sessions"]["active"] == 0
