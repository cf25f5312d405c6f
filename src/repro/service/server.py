"""HTTP/1.1 transport for the scheduling service, on the standard library.

:class:`ServiceServer` is a :class:`http.server.ThreadingHTTPServer`: one
thread per connection, with keep-alive and pipelining from
:class:`http.server.BaseHTTPRequestHandler` (the client side is
:mod:`http.client`); ``Expect: 100-continue`` is answered once the head
has passed the size checks.  Each request's method, path,
body and trace context go to :meth:`ServiceApp.handle`; every response
is written whole, with a Content-Length.  ``/batch`` additionally fans
cache misses out over a process pool (see :mod:`repro.service.app`).

Three ways to run it::

    memsched serve --port 8123 --workers 4          # CLI, blocking
    ServiceServer(app, port=8123).serve_forever()   # embed, blocking
    with ThreadedServer() as srv: ...               # tests / benchmarks
"""

from __future__ import annotations

import io
import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..obs import log
from .app import ServiceApp

#: Reject absurd request heads / bodies instead of buffering them.  A head
#: (request line and header lines) is read up to 64 KiB and no further;
#: the :mod:`http.server` parser also caps it at 100 header lines.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Requests handled at once, however many connections are open (the size
#: of the thread pool requests used to be dispatched on).  A request whose
#: ``X-Deadline-Ms`` budget runs out while it waits for a slot is shed.
DISPATCH_SLOTS = min(32, (os.cpu_count() or 1) + 4)

_REASONS = BaseHTTPRequestHandler.responses


def _render(status: int, headers: dict, body: bytes,
            keep_alive: bool) -> bytes:
    """One whole response: status line, headers and body."""
    fields = dict(headers)
    fields.setdefault("Content-Type", "application/json")
    fields["Content-Length"] = str(len(body))
    fields["Connection"] = "keep-alive" if keep_alive else "close"
    reason = _REASONS[status][0] if status in _REASONS else "Error"
    head = "".join(f"{k}: {v}\r\n" for k, v in fields.items())
    return (f"HTTP/1.1 {status} {reason}\r\n{head}\r\n".encode("latin-1")
            + body)


class _Handler(BaseHTTPRequestHandler):
    """One connection: a sequence of keep-alive requests."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True   # one write per response: send it now

    def handle_one_request(self) -> None:
        server = self.server
        sock = self.connection
        # The idle timeout bounds the wait for the next request's head and
        # body (idle keep-alive sockets and slow-loris writers); handling
        # and the response write run without it and are never cut.
        if server.idle_timeout is not None:
            sock.settimeout(server.idle_timeout)
        try:
            body = self._read_request()
        except socket.timeout:
            body = None
        if body is None:
            self.close_connection = True
            return
        if server.idle_timeout is not None:
            sock.settimeout(None)
        out = server._dispatch(self.command.upper(), self.path, body,
                               self.headers)
        self.wfile.write(_render(*out, keep_alive=not self.close_connection))

    def _read_request(self) -> Optional[bytes]:
        """The next request's body once its head has parsed, or ``None``
        when the connection ends here: at EOF, on a body cut short, or on
        a framing error (answered already)."""
        line = self.raw_requestline = self.rfile.readline(MAX_HEADER_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_HEADER_BYTES:
            return self.send_error(400, "oversized request line")
        words = line.split()
        if len(words) != 3 or not words[2].startswith(b"HTTP/1."):
            return self.send_error(400, "malformed request line")
        # Read the header lines here, with a running total, so no more than
        # MAX_HEADER_BYTES is ever buffered; the parser then reads them from
        # memory.
        lines, left = [], MAX_HEADER_BYTES - len(line)
        while True:
            field = self.rfile.readline(left + 1)
            left -= len(field)
            if left < 0:
                return self.send_error(400, "request head too large")
            lines.append(field)
            if field in (b"\r\n", b"\n", b""):
                break
        rfile, self.rfile = self.rfile, io.BytesIO(b"".join(lines))
        self._continue = False
        try:
            if not self.parse_request():
                return None
        finally:
            self.rfile = rfile
        length_s = self.headers.get("Content-Length", "0")
        try:
            length = int(length_s)
        except ValueError:
            return self.send_error(400, f"bad Content-Length {length_s!r}")
        if not 0 <= length <= MAX_BODY_BYTES:
            return self.send_error(413, f"body of {length} bytes refused")
        if self._continue:   # only now that the body would be accepted
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            log.debug("service.connection_aborted", error="IncompleteRead")
            return None
        return body

    def handle_expect_100(self) -> bool:
        self._continue = True   # answered once the head has been checked
        return True

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer a framing error (this transport's or the
        :mod:`http.server` parser's) with one JSON body, and close."""
        if code != 413:
            code = 400
        message = message or "malformed request"
        if explain:
            message = f"{message}: {explain}"
        self.close_connection = True
        err = json.dumps({"error": {"type": "bad_request",
                                    "message": message}})
        self.wfile.write(_render(code, {}, err.encode("utf-8"),
                                 keep_alive=False))


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server; binds on construction (``port=0`` picks an
    ephemeral port, read back from ``port``).

    Two hardening knobs for real traffic:

    * ``max_connections`` — concurrent-connection cap.  A connection
      accepted beyond the cap is answered with a single ``503`` JSON error
      and closed, instead of letting unbounded keep-alive sockets pile up
      behind busy dispatch slots.  Each open connection holds one thread,
      so without a cap threads grow with the connections.
    * ``idle_timeout`` — seconds a connection may take to deliver its next
      request.  An idle socket is closed silently (the standard server
      behaviour clients' retry-on-reused-socket logic expects — the
      bundled :class:`~repro.service.client.ServiceClient` reconnects
      transparently).
    """

    daemon_threads = False     # server_close() joins connection threads
    request_queue_size = 100   # listen backlog

    def __init__(self, app: Optional[ServiceApp] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: Optional[int] = None,
                 idle_timeout: Optional[float] = None) -> None:
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0 seconds")
        self.app = app if app is not None else ServiceApp()
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        #: Connections answered 503 because the cap was hit (diagnostics).
        self.n_rejected = 0
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self._slots = threading.Semaphore(DISPATCH_SLOTS)
        if ":" in host:   # an IPv6 literal such as ::1
            self.address_family = socket.AF_INET6
        super().__init__((host, port), _Handler)
        self.host = host
        self.port = self.server_address[1]

    def process_request(self, request: socket.socket,
                        client_address: tuple) -> None:
        with self._open_lock:
            admitted = (self.max_connections is None
                        or len(self._open) < self.max_connections)
            if admitted:
                self._open.add(request)
        if admitted:
            super().process_request(request, client_address)
            return
        # Saturated: answer one structured 503 and close, so the client
        # sees a retryable condition instead of a hang.  Retry-After tells
        # well-behaved clients how long to stay away.
        self.n_rejected += 1
        log.warning("service.saturated", limit=self.max_connections,
                    rejected=self.n_rejected)
        err = json.dumps({"error": {
            "status": 503, "type": "saturated",
            "message": f"connection limit ({self.max_connections}) "
                       f"reached; retry later"}})
        try:
            request.sendall(_render(503, {"Retry-After": "1"},
                                    err.encode("utf-8"), keep_alive=False))
        except OSError:
            pass
        self.shutdown_request(request)

    def shutdown_request(self, request: socket.socket) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: socket.socket,
                     client_address: tuple) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, OSError):
            # A peer vanishing mid-request is routine, but not invisible:
            # it surfaces at debug level for postmortems.
            log.debug("service.connection_aborted",
                      error=type(exc).__name__)
        else:
            log.error("service.connection_error", error=repr(exc))

    def _dispatch(self, method: str, path: str, body: bytes,
                 headers) -> tuple[int, dict, bytes]:
        """Serve one request on a dispatch slot, or shed it with a
        structured 408 if its ``X-Deadline-Ms`` budget expired while it
        waited for one — the client gave up already, so computing the
        answer is pure waste.  A caller's ``X-Trace-Id``/``X-Span-Id``
        reach :meth:`ServiceApp.handle` as its trace context (a trace id
        alone is enough to join the trace)."""
        expires = None
        budget = headers.get("X-Deadline-Ms")
        if budget is not None:
            try:
                expires = time.monotonic() + max(0, int(budget)) / 1000.0
            except (ValueError, OverflowError):   # not an int / huge
                pass
        trace_id = headers.get("X-Trace-Id")
        ctx = (trace_id, headers.get("X-Span-Id") or None) if trace_id \
            else None
        with self._slots:
            if expires is not None and time.monotonic() >= expires:
                log.warning("service.deadline_shed", method=method,
                            path=path)
                err = json.dumps({"error": {
                    "status": 408, "type": "deadline_exceeded",
                    "message": "deadline expired before the request was "
                               "dispatched; the service is overloaded"}})
                return 408, {}, err.encode("utf-8")
            return self.app.handle(method, path, body, ctx)

    def server_close(self) -> None:
        """Stop listening and cut every open connection — an idle
        keep-alive socket would otherwise still be served after the stop
        and could re-create the ``/batch`` pool — then wait for the
        connection threads and release the pool."""
        with self._open_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        super().server_close()
        self.app.close()


class ThreadedServer:
    """A live :class:`ServiceServer` on a background thread — the embedding
    used by the test suite and ``benchmarks/bench_service.py``.

    Usable as a context manager; ``port`` holds the bound port (pass
    ``port=0`` for an ephemeral one).
    """

    def __init__(self, app: Optional[ServiceApp] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: Optional[int] = None,
                 idle_timeout: Optional[float] = None) -> None:
        self.server = ServiceServer(app, host, port,
                                    max_connections=max_connections,
                                    idle_timeout=idle_timeout)
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
        # A short poll interval keeps stop() quick: shutdown() waits for
        # the accept loop's next wake-up.
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="memsched-service", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10.0)
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
    log.info("service.listening", host=server.host, port=server.port,
             workers=app.workers, cache=app.cache.capacity)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
