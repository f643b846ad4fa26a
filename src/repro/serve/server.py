"""Asyncio HTTP/1.1 server lifecycle for the recommender service.

A deliberately small production shell around :class:`ServeApp`:

- **HTTP/1.1 with keep-alive** — request line + headers parsed from the
  stream, bodies framed by ``Content-Length`` (no chunked uploads; the
  API's bodies are tiny preference objects).
- **Bounded concurrency** — an ``asyncio.Semaphore`` of ``--workers``
  permits; excess requests queue in the kernel accept backlog instead
  of stampeding the scorer.
- **Request timeouts** — an upload's hop to the executor thread (and
  the ``handler_delay`` test hook) runs under ``wait_for``, so a stalled
  upload returns 503 rather than wedging the connection slot forever.
  Every other handler is synchronous and is called inline: it runs to
  completion once started, which no timeout could interrupt.
- **Structured access logs** — one JSON object per request on the
  ``repro.serve.access`` logger (route, status, latency, bytes, client).
- **Graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
  requests finish (up to ``drain_timeout``), then close idle keep-alive
  connections.  In-flight responses are never dropped; this is pinned
  by ``tests/test_serve.py``.

:class:`BackgroundServer` runs the same server on a daemon thread for
tests, examples, and the load-generator benchmarks.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from typing import Optional

from .app import Request, Response, ServeApp, error_response

access_log = logging.getLogger("repro.serve.access")

DEFAULT_MAX_CONCURRENCY = 64
DEFAULT_REQUEST_TIMEOUT = 10.0
DEFAULT_DRAIN_TIMEOUT = 10.0

#: Hard caps on the wire protocol (defense against garbage input).
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_COUNT = 64
MAX_BODY_BYTES = 1 * 1024 * 1024

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed HTTP from the client (connection gets 400 + close)."""


class PayloadTooLarge(ProtocolError):
    """Declared body over the server's cap (connection gets 413 + close)."""


async def _read_request(
    reader: asyncio.StreamReader, client: str, max_body_bytes: int = MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF."""
    line = await reader.readline()
    if not line:
        return None  # client closed between requests
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError("request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError(f"malformed request line {line!r}") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol {version!r}")
    headers: dict = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ProtocolError("connection closed mid-headers")
        if len(headers) >= MAX_HEADER_COUNT:
            raise ProtocolError("too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header {raw!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError("bad Content-Length") from None
        if length < 0:
            raise ProtocolError("bad Content-Length")
        if length > max_body_bytes:
            raise PayloadTooLarge(
                f"declared body of {length} bytes exceeds limit {max_body_bytes}"
            )
        body = await reader.readexactly(length)
    return Request(method=method.upper(), path=target, headers=headers, body=body, client=client)


def _response_bytes(response: Response, keep_alive: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + response.body


class ServeServer:
    """One listening socket serving one :class:`ServeApp`."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.app = app
        self.host = host
        self.port = port  # replaced with the bound port after start()
        self.max_concurrency = max_concurrency
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.max_body_bytes = max_body_bytes
        self.requests_served = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._stopped: Optional[asyncio.Event] = None
        self._draining = False
        self._inflight = 0
        self._writers: set = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self, install_signal_handlers: bool = False) -> None:
        """Run until :meth:`request_shutdown` (or SIGTERM/SIGINT) fires."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, ValueError):
                    pass  # non-main thread or platform without signal support
        assert self._stopped is not None
        await self._stopped.wait()

    def run(self, install_signal_handlers: bool = True) -> None:
        """Blocking entry point (the CLI's)."""
        asyncio.run(self.serve_until_shutdown(install_signal_handlers))

    def request_shutdown(self) -> None:
        """Begin graceful drain; safe to call from the event-loop thread."""
        if self._loop is None or self._draining:
            return
        self._draining = True
        self._loop.create_task(self._drain())

    def request_shutdown_threadsafe(self) -> None:
        """SIGTERM equivalent callable from any thread (tests, embedders)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.request_shutdown)
        except RuntimeError:
            pass  # loop already exited: nothing left to drain

    async def _drain(self) -> None:
        # 1. Stop accepting new connections.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # 2. Let in-flight requests finish writing their responses.
        assert self._loop is not None
        deadline = self._loop.time() + self.drain_timeout
        while self._inflight > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.005)
        # 3. Close surviving (idle keep-alive) connections.
        for writer in list(self._writers):
            writer.close()
        assert self._stopped is not None
        self._stopped.set()

    # -- connection handling ----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "unknown"
        self._writers.add(writer)
        try:
            while not self._draining:
                try:
                    request = await _read_request(reader, client, self.max_body_bytes)
                except ProtocolError as exc:
                    status = 413 if isinstance(exc, PayloadTooLarge) else 400
                    response = error_response(status, str(exc), "other")
                    writer.write(_response_bytes(response, keep_alive=False))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                if request is None:
                    return
                # In-flight covers dispatch *and* the response write, so
                # a drain never closes a connection mid-response.
                self._inflight += 1
                self.app.inflight.inc()
                try:
                    keep_alive = self._keep_alive(request)
                    response = await self._dispatch(request)
                    if self._draining:
                        keep_alive = False
                    # Count before the write: write() can send() to the
                    # socket directly, and send releases the GIL — a
                    # client may read the whole response and observe the
                    # counter before a post-write increment ever runs.
                    self.requests_served += 1
                    writer.write(_response_bytes(response, keep_alive=keep_alive))
                    await writer.drain()
                finally:
                    self._inflight -= 1
                    self.app.inflight.dec()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _keep_alive(request: Request) -> bool:
        return request.headers.get("connection", "keep-alive").lower() != "close"

    async def _dispatch(self, request: Request) -> Response:
        assert self._semaphore is not None
        async with self._semaphore:  # bounded concurrency
            started = time.perf_counter()
            try:
                blocking = self.app.blocking(request)
                if blocking or self.app.handler_delay > 0:
                    response = await asyncio.wait_for(
                        self._call_handler(request, blocking),
                        timeout=self.request_timeout,
                    )
                else:
                    # A synchronous handler runs to completion once
                    # started, so no timeout could cut it short: call it
                    # inline, without a Task and a loop iteration.
                    response = self.app.handle(request)
            except asyncio.TimeoutError:
                response = error_response(503, "request timed out", "other")
            except Exception as exc:  # a handler bug must not kill the connection task
                access_log.exception("handler error")
                response = error_response(500, f"internal error: {type(exc).__name__}", "other")
            elapsed = time.perf_counter() - started
        self.app.request_seconds.observe(elapsed, labels=(response.route,))
        self._log_access(request, response, elapsed)
        return response

    async def _call_handler(self, request: Request, blocking: bool) -> Response:
        """The awaited dispatch path, the only one a timeout can interrupt."""
        if self.app.handler_delay > 0:
            await asyncio.sleep(self.app.handler_delay)
        # Handlers the app marks as blocking (upload admission: decode,
        # validate, fsync) run on a thread so they stall only their own
        # request, not every connection multiplexed on the event loop.
        if blocking:
            assert self._loop is not None
            return await self._loop.run_in_executor(None, self.app.handle, request)
        return self.app.handle(request)

    def _log_access(self, request: Request, response: Response, elapsed: float) -> None:
        if not access_log.isEnabledFor(logging.INFO):
            return
        access_log.info(
            "%s",
            json.dumps(
                {
                    "ts": round(time.time(), 3),
                    "client": request.client,
                    "method": request.method,
                    "path": request.path,
                    "route": response.route,
                    "status": response.status,
                    "bytes": len(response.body),
                    "latency_ms": round(elapsed * 1000, 3),
                },
                sort_keys=True,
            ),
        )


class BackgroundServer:
    """Context manager running a :class:`ServeServer` on a daemon thread.

    The thread owns its own event loop; ``__enter__`` blocks until the
    socket is bound (so ``server.port`` is real), ``__exit__`` performs
    the same graceful drain SIGTERM would.
    """

    def __init__(self, app: ServeApp, **server_kwargs) -> None:
        self.server = ServeServer(app, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # surface bind errors to the caller
                self._error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.serve_until_shutdown(install_signal_handlers=False)

        try:
            asyncio.run(main())
        except BaseException:
            if not self._ready.is_set():
                self._ready.set()

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if not self._ready.is_set():
            raise RuntimeError("server failed to start within 30s")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self, join_timeout: float = 30.0) -> None:
        self.server.request_shutdown_threadsafe()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host
