"""Asyncio HTTP/1.1 transport for the scheduling service.

Deliberately dependency-free: a small hand-rolled HTTP server over
``asyncio.start_server`` (the container ships no web framework, and the
protocol needs only a handful of routes).  Connections are keep-alive;
scheduling work runs in the event loop's default thread-pool executor so
slow cold paths never block health checks or other clients, and ``/batch``
additionally fans cache misses out over a process pool (see
:mod:`repro.service.app`).  Every response is written whole, with a
Content-Length.

Three ways to run it::

    memsched serve --port 8123 --workers 4          # CLI, blocking
    asyncio.run(ServiceServer(app).serve_forever()) # embed in a loop
    with ThreadedServer() as srv: ...               # tests / benchmarks
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Optional

from ..obs import log
from .app import ServiceApp

#: Reject absurd request heads / bodies instead of buffering them.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Malformed HTTP framing (not JSON-level errors): answer and close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _render(status: int, headers: dict, body: bytes,
            keep_alive: bool) -> bytes:
    """One whole response: status line, headers and body."""
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}"]
    out_headers = dict(headers)
    out_headers.setdefault("Content-Type", "application/json")
    out_headers["Content-Length"] = str(len(body))
    out_headers["Connection"] = "keep-alive" if keep_alive else "close"
    lines.extend(f"{k}: {v}" for k, v in out_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ServiceServer:
    """The asyncio server; binds lazily so ``port=0`` (ephemeral) works.

    Two hardening knobs for real traffic:

    * ``max_connections`` — concurrent-connection cap.  A connection
      accepted beyond the cap is answered with a single ``503`` JSON error
      and closed, instead of letting unbounded keep-alive sockets pile up
      behind a slow executor.
    * ``idle_timeout`` — seconds a keep-alive connection may sit between
      requests.  An idle socket is closed silently (the standard server
      behaviour clients' retry-on-reused-socket logic expects — the
      bundled :class:`~repro.service.client.ServiceClient` reconnects
      transparently).
    """

    def __init__(self, app: Optional[ServiceApp] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: Optional[int] = None,
                 idle_timeout: Optional[float] = None) -> None:
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0 seconds")
        self.app = app if app is not None else ServiceApp()
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        #: Connections answered 503 because the cap was hit (diagnostics).
        self.n_rejected = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and start accepting; updates ``self.port`` when ephemeral."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel idle keep-alive connections so the loop can close cleanly.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.app.close()   # release the /batch worker pool

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.aclose()

    # ------------------------------------------------------------------
    # one connection = a sequence of keep-alive requests
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        self._conn_tasks.add(asyncio.current_task())
        try:
            if (self.max_connections is not None
                    and len(self._conn_tasks) > self.max_connections):
                # Saturated: answer one structured 503 and close, so the
                # client sees a retryable condition instead of a hang.
                self.n_rejected += 1
                log.warning("service.saturated",
                            limit=self.max_connections,
                            rejected=self.n_rejected)
                err = json.dumps({"error": {
                    "status": 503, "type": "saturated",
                    "message": f"connection limit ({self.max_connections}) "
                               f"reached; retry later"}})
                # Retry-After tells well-behaved clients how long to stay
                # away instead of hammering the cap.
                writer.write(_render(503, {"Retry-After": "1"},
                                     err.encode("utf-8"),
                                     keep_alive=False))
                await writer.drain()
                return
            while True:
                try:
                    if self.idle_timeout is None:
                        parsed = await self._read_request(reader)
                    else:
                        # Bound the wait for the *next request head/body*
                        # (idle keep-alive sockets and slow-loris writers);
                        # request *handling* runs outside the timeout and
                        # is never interrupted.
                        try:
                            parsed = await asyncio.wait_for(
                                self._read_request(reader),
                                timeout=self.idle_timeout)
                        except asyncio.TimeoutError:
                            break
                except _BadRequest as exc:
                    err = json.dumps({"error": {"type": "bad_request",
                                                "message": str(exc)}})
                    writer.write(_render(exc.status, {}, err.encode("utf-8"),
                                         keep_alive=False))
                    await writer.drain()
                    break
                if parsed is None:      # clean EOF between requests
                    break
                method, path, headers, body = parsed
                expires = self._deadline_of(headers)
                ctx = self._trace_ctx_of(headers)
                status, out_headers, out_body = await loop.run_in_executor(
                    None, self._dispatch, method, path, body, expires, ctx)
                keep_alive = headers.get("connection", "").lower() != "close"
                writer.write(_render(status, out_headers, out_body,
                                     keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError) as exc:
            # A peer vanishing mid-request is routine, but no longer
            # invisible: it surfaces at debug level for postmortems.
            log.debug("service.connection_aborted",
                      error=type(exc).__name__)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _deadline_of(headers: dict) -> Optional[float]:
        """Absolute monotonic expiry from an ``X-Deadline-Ms`` header, or
        ``None``.  Parsed in the transport so :meth:`ServiceApp.handle`
        keeps its (method, path, body) signature."""
        raw = headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            budget_ms = int(raw)
        except ValueError:
            return None
        return time.monotonic() + max(0, budget_ms) / 1000.0

    @staticmethod
    def _trace_ctx_of(headers: dict) -> Optional[tuple]:
        """The caller's ``(trace_id, span_id)`` from the
        ``X-Trace-Id``/``X-Span-Id`` headers, or ``None``.  Parsed in the
        transport (like the deadline) so the app object never sees raw
        headers; a trace id alone is enough to join the trace."""
        trace_id = headers.get("x-trace-id")
        if not trace_id:
            return None
        return trace_id, headers.get("x-span-id") or None

    def _dispatch(self, method: str, path: str, body: bytes,
                  expires: Optional[float], ctx: Optional[tuple] = None):
        """Runs in the executor: shed the request with a structured 408 if
        its deadline expired while queued behind a busy pool — the client
        gave up already, so computing the answer is pure waste."""
        if expires is not None and time.monotonic() >= expires:
            log.warning("service.deadline_shed", method=method, path=path)
            err = json.dumps({"error": {
                "status": 408, "type": "deadline_exceeded",
                "message": "deadline expired before the request was "
                           "dispatched; the service is overloaded"}})
            return 408, {}, err.encode("utf-8")
        if ctx is not None:
            return self.app.handle(method, path, body, ctx)
        return self.app.handle(method, path, body)   # 3-arg compatible

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF before a request line."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise _BadRequest(400, f"oversized request line: {exc}") from exc
        if not request_line:
            return None
        parts = request_line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, "malformed request line")
        method, path, _version = parts

        headers: dict[str, str] = {}
        total = len(request_line)
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                raise _BadRequest(400,
                                  f"oversized header line: {exc}") from exc
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise _BadRequest(400, "request head too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        length_s = headers.get("content-length", "0")
        try:
            length = int(length_s)
        except ValueError:
            raise _BadRequest(400,
                              f"bad Content-Length {length_s!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(413, f"body of {length} bytes refused")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body


class ThreadedServer:
    """A live :class:`ServiceServer` on a background thread — the embedding
    used by the test suite and ``benchmarks/bench_service.py``.

    Usable as a context manager; ``port`` holds the bound port after
    ``start()`` (pass ``port=0`` for an ephemeral one).
    """

    def __init__(self, app: Optional[ServiceApp] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: Optional[int] = None,
                 idle_timeout: Optional[float] = None) -> None:
        self.server = ServiceServer(app, host, port,
                                    max_connections=max_connections,
                                    idle_timeout=idle_timeout)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def app(self) -> ServiceApp:
        return self.server.app

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ThreadedServer":
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="memsched-service", daemon=True)
        self._thread.start()
        if not started.wait(timeout=10.0):  # pragma: no cover - startup hang
            raise RuntimeError("service thread failed to start")
        return self

    def stop(self) -> None:
        if self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self._loop).result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve(host: str = "127.0.0.1", port: int = 8123, *,
          workers: int = 1, cache_size: int = 1024,
          max_connections: Optional[int] = None,
          idle_timeout: Optional[float] = None) -> int:
    """Blocking entry point behind ``memsched serve``."""
    app = ServiceApp(workers=workers, cache_size=cache_size)
    server = ServiceServer(app, host, port,
                           max_connections=max_connections,
                           idle_timeout=idle_timeout)

    async def run() -> None:
        await server.start()
        log.info("service.listening", host=server.host, port=server.port,
                 workers=app.workers, cache=app.cache.capacity)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0
