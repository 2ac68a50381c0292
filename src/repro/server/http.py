"""The asyncio HTTP front-end of the extraction service.

A deliberately small HTTP/1.1 implementation over ``asyncio.start_server``
— no web framework, because the repository's no-new-dependencies rule is
a feature: the server is ~one screen of framing code over the
:class:`~repro.server.service.SpannerService` it fronts.

Routes:

``POST /v1/stream``
    One extraction session per request (see
    :mod:`repro.server.protocol`).  The request body — ``Content-Length``
    or ``Transfer-Encoding: chunked`` — is consumed **as it arrives**,
    one NDJSON event at a time, with an ``await``-point between chunks;
    the response streams back with chunked transfer encoding, one NDJSON
    line per mapping the moment it settles.  The pattern compiles on a
    worker thread, so a slow compile stalls only its own session; it
    compiles to a sequential eVA and determinizes on the fly, so no
    pattern is refused for the size of its subset construction.
    Admission control answers
    ``429`` (with ``Retry-After``) past the session cap; a session idle
    longer than the configured timeout is closed with an in-band error
    event; per-session fed-bytes caps likewise surface as in-band
    errors.  Backpressure is structural: the server only reads as fast
    as it evaluates, and ``await writer.drain()`` after each delivery
    stops evaluation when the client stops reading.

``GET /metrics``
    The JSON counter snapshot: request totals, session lifecycle,
    plan-cache hit/miss/eviction counters and p50/p99 of recent
    per-request latencies (see :mod:`repro.server.metrics`).

``GET /healthz``
    Liveness probe.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import time
from typing import Awaitable, Callable

from repro.core.errors import ReproError, ResourceLimitError, StreamingError
from repro.server.protocol import (
    MAX_EVENT_BYTES,
    ProtocolError,
    mapping_event,
    parse_event,
    parse_open,
)
from repro.server.service import (
    AdmissionError,
    ServerConfig,
    SessionLimitError,
    SpannerService,
)

__all__ = ["ReproServer", "serve_forever"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Bytes pulled off the socket per read while scanning for body lines.
_READ_SIZE = 65536


class _HttpError(Exception):
    """An HTTP-level failure to answer with *status* before streaming."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _BodyStream:
    """NDJSON lines out of an HTTP/1.1 body, as the bytes arrive.

    Supports ``Content-Length`` and ``Transfer-Encoding: chunked``
    framing; :meth:`readline` returns one line (without the newline) per
    call and ``None`` at end of body.  The internal buffer is bounded by
    :data:`~repro.server.protocol.MAX_EVENT_BYTES` — a single line
    longer than that is a protocol violation, not a reason to balloon.
    """

    def __init__(self, reader: asyncio.StreamReader, headers: dict[str, str]) -> None:
        self._reader = reader
        self._buffer = b""
        self._done = False
        encoding = headers.get("transfer-encoding", "").lower()
        self._chunked = "chunked" in encoding
        self._remaining = 0
        if not self._chunked:
            try:
                self._remaining = int(headers.get("content-length", "0"))
            except ValueError:
                raise _HttpError(400, "malformed Content-Length header") from None
            if self._remaining < 0:
                raise _HttpError(400, "negative Content-Length header")

    async def _more(self) -> bytes:
        if self._chunked:
            size_line = await self._reader.readline()
            if not size_line:
                return b""
            try:
                size = int(size_line.split(b";", 1)[0].strip() or b"0", 16)
            except ValueError:
                raise _HttpError(400, "malformed chunked framing") from None
            if size == 0:
                # Consume any trailers up to the blank line.
                while True:
                    trailer = await self._reader.readline()
                    if trailer in (b"\r\n", b"\n", b""):
                        break
                return b""
            data = await self._reader.readexactly(size)
            await self._reader.readexactly(2)  # the CRLF after the chunk
            return data
        if self._remaining <= 0:
            return b""
        data = await self._reader.read(min(_READ_SIZE, self._remaining))
        if not data:
            self._remaining = 0
            return b""
        self._remaining -= len(data)
        return data

    async def readline(self) -> bytes | None:
        """The next body line, or ``None`` once the body is exhausted."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline].rstrip(b"\r")
                self._buffer = self._buffer[newline + 1 :]
                if not line:
                    continue  # blank lines between events are tolerated
                return line
            if self._done:
                if self._buffer:
                    line = self._buffer.rstrip(b"\r")
                    self._buffer = b""
                    if line:
                        return line
                return None
            if len(self._buffer) > MAX_EVENT_BYTES:
                raise ProtocolError(
                    f"event line exceeds the {MAX_EVENT_BYTES}-byte bound"
                )
            try:
                data = await self._more()
            except asyncio.IncompleteReadError:
                data = b""
            if not data:
                self._done = True
            else:
                self._buffer += data


def _head(status: int, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class ReproServer:
    """The asyncio server: bind with :meth:`start`, stop by closing it."""

    def __init__(self, service: SpannerService | None = None) -> None:
        self.service = service if service is not None else SpannerService()
        self.config: ServerConfig = self.service.config
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> "ReproServer":
        """Bind and start accepting connections (raises ``OSError`` on failure)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_cancelled(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        status = 500
        try:
            method, path, headers = await self._read_head(reader)
            if path == "/metrics" and method == "GET":
                status = await self._respond_json(
                    writer, 200, self.service.metrics_snapshot()
                )
            elif path == "/healthz" and method == "GET":
                status = await self._respond_json(writer, 200, {"status": "ok"})
            elif path == "/v1/stream":
                if method != "POST":
                    status = await self._respond_json(
                        writer, 405, {"error": "use POST for /v1/stream"}
                    )
                else:
                    status = await self._stream_session(reader, writer, headers)
            else:
                status = await self._respond_json(
                    writer, 404, {"error": f"unknown path {path!r}"}
                )
        except _HttpError as error:
            status = await self._respond_json(
                writer, error.status, {"error": str(error)}, best_effort=True
            )
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            status = 0  # client went away mid-exchange; nothing to answer
        finally:
            self.service.metrics.record_request(status)
            self.service.metrics.record_latency(time.perf_counter() - started)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str]]:
        try:
            raw = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.config.idle_timeout
            )
        except asyncio.TimeoutError:
            raise _HttpError(408, "timed out waiting for the request head") from None
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise _HttpError(400, "malformed or truncated request head") from None
        lines = raw.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise _HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        extra_headers: dict[str, str] | None = None,
        best_effort: bool = False,
    ) -> int:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close",
        }
        if extra_headers:
            headers.update(extra_headers)
        try:
            writer.write(_head(status, headers) + body)
            await writer.drain()
        except (ConnectionError, OSError):
            if not best_effort:
                raise
        return status

    # ------------------------------------------------------------------ #
    # The session endpoint
    # ------------------------------------------------------------------ #

    async def _stream_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
    ) -> int:
        config = self.config
        body = _BodyStream(reader, headers)

        async def next_line() -> bytes | None:
            return await asyncio.wait_for(body.readline(), config.idle_timeout)

        try:
            first = await next_line()
        except asyncio.TimeoutError:
            return await self._respond_json(
                writer, 408, {"error": "timed out waiting for the opening event"}
            )
        if first is None:
            return await self._respond_json(
                writer, 400, {"error": "empty body: the first line opens the session"}
            )
        try:
            request = parse_open(first)
        except ProtocolError as error:
            return await self._respond_json(writer, 400, {"error": str(error)})
        try:
            # Off the event loop: a compile stalls only its own session.
            session = await asyncio.to_thread(self.service.open_session, request)
        except AdmissionError as error:
            return await self._respond_json(
                writer,
                429,
                {"error": str(error), "retry_after": error.retry_after},
                # Retry-After is delta-seconds; round *up* so a client
                # honouring it never retries before the window reopens
                # (int() truncated 0.8s to 0 and then "or 1" masked only
                # the zero case, while 1.2s became a too-early 1).
                extra_headers={
                    "Retry-After": str(max(1, math.ceil(error.retry_after)))
                },
            )
        except ResourceLimitError as error:
            return await self._respond_json(
                writer, 400, {"error": str(error), "code": "resource_limit"}
            )
        except ReproError as error:
            return await self._respond_json(writer, 400, {"error": str(error)})

        writer.write(
            _head(
                200,
                {
                    "Content-Type": "application/x-ndjson",
                    "Transfer-Encoding": "chunked",
                    "Connection": "close",
                },
            )
        )

        async def emit(payload: dict) -> None:
            line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
            await writer.drain()

        try:
            await emit(
                {
                    "ready": True,
                    "session": session.session_id,
                    "variables": list(session.variables),
                    "plan_cache": session.cache_outcome,
                    "emit": session.emit,
                }
            )
            ended = False
            while not ended:
                try:
                    line = await next_line()
                except asyncio.TimeoutError:
                    self.service.metrics.session_expired()
                    await emit(
                        {
                            "error": "session idle for longer than "
                            f"{config.idle_timeout:g}s",
                            "code": "idle_timeout",
                        }
                    )
                    return 200
                if line is None:
                    break  # end of body: implicit finish
                try:
                    event = parse_event(line)
                except ProtocolError as error:
                    self.service.metrics.session_failed()
                    await emit({"error": str(error), "code": "protocol"})
                    return 200
                if event.kind == "finish":
                    ended = True
                    continue
                try:
                    delivered = session.feed(event.text)
                except SessionLimitError as error:
                    self.service.metrics.session_failed()
                    await emit({"error": str(error), "code": "too_large"})
                    return 200
                except ResourceLimitError as error:
                    self.service.metrics.session_failed()
                    await emit({"error": str(error), "code": "resource_limit"})
                    return 200
                except StreamingError as error:
                    self.service.metrics.session_failed()
                    await emit({"error": str(error), "code": "streaming"})
                    return 200
                for mapping in delivered:
                    await emit(mapping_event(mapping, settled=True))
            for mapping in session.finish():
                await emit(mapping_event(mapping, settled=False))
            await emit(
                {
                    "done": True,
                    "mappings": session.mappings_delivered,
                    "position": session.position,
                    "bytes_fed": session.bytes_fed,
                }
            )
            return 200
        finally:
            session.close()
            try:
                writer.write(b"0\r\n\r\n")
                await writer.drain()
            except (ConnectionError, OSError):
                pass


async def serve_forever(
    config: ServerConfig,
    *,
    service: SpannerService | None = None,
    ready: Callable[[ReproServer], Awaitable[None] | None] | None = None,
) -> None:
    """Bind and serve until cancelled or signalled (the ``repro serve`` loop).

    *ready* is called once the socket is bound — the CLI prints the
    address, tests capture the ephemeral port.

    SIGINT/SIGTERM are handled explicitly via the event loop rather than
    relying on ``KeyboardInterrupt``: a process started in the background
    of a non-interactive shell inherits ``SIGINT`` as *ignored*, so the
    default Python handler is never installed and a bare ``kill -INT``
    (how CI stops the server) would otherwise be dropped on the floor.
    ``loop.add_signal_handler`` replaces the inherited disposition, so
    shutdown works the same in the foreground and the background.
    """
    server = ReproServer(service if service is not None else SpannerService(config))
    await server.start()
    loop = asyncio.get_running_loop()
    stop: asyncio.Future[None] = loop.create_future()

    def request_stop() -> None:
        if not stop.done():
            stop.set_result(None)

    handled_signals: list[signal.Signals] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, request_stop)
        except (NotImplementedError, RuntimeError, ValueError):
            continue  # non-main thread, or a platform without loop signals
        handled_signals.append(signum)
    serve_task = asyncio.ensure_future(server.serve_until_cancelled())
    try:
        if ready is not None:
            result = ready(server)
            if asyncio.iscoroutine(result):
                await result
        await asyncio.wait({serve_task, stop}, return_when=asyncio.FIRST_COMPLETED)
    except asyncio.CancelledError:
        pass
    finally:
        serve_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        for signum in handled_signals:
            loop.remove_signal_handler(signum)
        await server.close()
