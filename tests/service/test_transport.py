"""HTTP transport tests over live sockets, on ``dex()`` only: response
framing, the framing-error contract, header handling (deadlines, trace
context, ``Connection``, ``Expect``), dispatch slots, idle timeouts, the
listen backlog and shutdown in :mod:`repro.service.server`.

Every response is written whole with a ``Content-Length`` (there is no
chunked path), so the framing checks run over every endpoint, error
answers included.  Nothing here needs numpy, scipy or networkx.
"""

import json
import multiprocessing
import socket
import threading
import time
from http import HTTPStatus

import pytest

from repro.core.platform import Platform
from repro.dags.toy import dex
from repro.io.json_io import graph_to_dict, platform_to_dict
from repro.service import (
    ServiceApp,
    ServiceClient,
    ServiceClientError,
    ThreadedServer,
)
from repro.service.server import DISPATCH_SLOTS, MAX_BODY_BYTES, ServiceServer

PLATFORM = Platform(n_blue=1, n_red=1, mem_blue=5, mem_red=5)
REQUEST = {"graph": graph_to_dict(dex()),
           "platform": platform_to_dict(PLATFORM),
           "algorithm": "memheft"}


class SpyApp(ServiceApp):
    """Records each request's trace context.  ``/hold`` blocks until
    ``release`` is set and then answers as ``/healthz``; ``/raw`` answers
    ``raw`` verbatim."""

    def __init__(self):
        super().__init__(workers=1)
        self.contexts = []
        self.holding = threading.Semaphore(0)
        self.release = threading.Event()
        self.raw = (200, {}, b"{}")

    def handle(self, method, path, body, ctx=None):
        self.contexts.append(ctx)
        if path == "/raw":
            return self.raw
        if path == "/hold":
            self.holding.release()
            self.release.wait(10)
            path = "/healthz"
        return super().handle(method, path, body, ctx)


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(ServiceApp(workers=1)) as srv:
        ServiceClient(srv.host, srv.port).wait_until_ready()
        yield srv


@pytest.fixture(scope="module")
def spy_server():
    with ThreadedServer(SpyApp()) as srv:
        yield srv


def connect(server, timeout=10):
    return socket.create_connection((server.host, server.port),
                                    timeout=timeout)


def read_to_eof(sock):
    """Everything the server sends until it closes the connection."""
    chunks = []
    while True:
        try:
            data = sock.recv(65536)
        except ConnectionResetError:   # closed with our input unread
            break
        if not data:
            break
        chunks.append(data)
    return b"".join(chunks)


def parse_response(data):
    """``(status_line, headers, body, rest)`` of the first response in
    ``data``, with lower-cased header names; ``rest`` is what follows."""
    head, _, tail = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    return lines[0], headers, tail[:length], tail[length:]


def exchange(server, raw_request, half_close=True):
    """Send raw request bytes (then end our side of the stream), read
    until the server closes; returns :func:`parse_response`'s tuple."""
    sock = connect(server)
    try:
        sock.sendall(raw_request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return parse_response(read_to_eof(sock))
    finally:
        sock.close()


def request_bytes(method, path, body=b"", headers=""):
    return (f"{method} {path} HTTP/1.1\r\nHost: x\r\n{headers}"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1") + body


def status_of(status_line):
    return int(status_line.split(" ")[1])


class TestResponseHead:
    @pytest.mark.parametrize("raw, status", [
        (request_bytes("GET", "/healthz"), 200),
        (request_bytes("POST", "/schedule", b"{oops"), 400),
        (request_bytes("GET", "/nowhere"), 404),
        (request_bytes("GET", "/schedule"), 405),
        (request_bytes("GET", "/healthz", headers="X-Deadline-Ms: 0\r\n"),
         408),
        (b"POST /schedule HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 413),
        (request_bytes("POST", "/schedule", json.dumps(dict(
            REQUEST, platform=platform_to_dict(Platform(1, 1, 0.5, 0.5))
        )).encode()), 422),
    ], ids=["200", "400", "404", "405", "408", "413", "422"])
    def test_status_line_and_length(self, server, raw, status):
        status_line, headers, body, rest = exchange(server, raw)
        assert status_line == \
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
        assert int(headers["content-length"]) == len(body)
        assert headers["connection"] == "close"
        assert rest == b""

    @pytest.mark.parametrize("status, extra", [
        (500, {}), (503, {"Retry-After": "1"})])
    def test_server_error_status_lines(self, spy_server, status, extra):
        spy_server.app.raw = (status, extra, b"{}")
        status_line, headers, body, rest = exchange(
            spy_server, request_bytes("GET", "/raw"))
        assert status_line == \
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
        assert (headers["content-length"], body, rest) == ("2", b"{}", b"")
        assert headers["connection"] == "close"
        assert headers.get("retry-after") == extra.get("Retry-After")

    def test_unknown_status_gets_generic_reason(self, spy_server):
        spy_server.app.raw = (599, {}, b"")
        status_line, headers, body, _ = exchange(
            spy_server, request_bytes("GET", "/raw"))
        assert status_line == "HTTP/1.1 599 Error"
        assert (headers["content-length"], body) == ("0", b"")

    def test_content_type_defaults_to_json_but_is_overridable(self, server):
        _, plain, _, _ = exchange(server, request_bytes("GET", "/healthz"))
        assert plain["content-type"] == "application/json"
        _, text, _, _ = exchange(server, request_bytes("GET", "/metrics"))
        assert text["content-type"].startswith("text/plain")

    def test_app_cannot_override_framing_headers(self, spy_server):
        spy_server.app.raw = (200, {"Content-Length": "999",
                                    "Connection": "x"}, b"abc")
        _, headers, body, rest = exchange(spy_server,
                                          request_bytes("GET", "/raw"))
        assert (headers["content-length"], body, rest) == ("3", b"abc", b"")
        assert headers["connection"] == "close"


class TestFraming:
    @pytest.mark.parametrize("line, payload, status", [
        ("GET /healthz", None, 200),
        ("GET /algorithms", None, 200),
        ("GET /metrics", None, 200),
        ("POST /schedule", REQUEST, 200),
        ("POST /batch", {"requests": [REQUEST, REQUEST]}, 200),
        ("GET /jobs?session=none", None, 404),
        ("GET /schedule", None, 405),
        ("GET /nowhere", None, 404),
        ("POST /cells", {"cells": [1]}, 404),
    ])
    def test_every_response_is_length_framed(self, server, line, payload,
                                             status):
        method, path = line.split(" ")
        body = b"" if payload is None else json.dumps(payload).encode()
        status_line, headers, out, rest = exchange(
            server, request_bytes(method, path, body))
        assert status_of(status_line) == status
        assert int(headers["content-length"]) == len(out)
        assert "transfer-encoding" not in headers
        assert headers["connection"] == "close"
        assert rest == b""
        if status != 200:
            assert json.loads(out)["error"]["status"] == status

    def test_lowercase_method_is_normalised(self, server):
        status_line, _, out, _ = exchange(server,
                                          request_bytes("get", "/healthz"))
        assert status_of(status_line) == 200
        assert json.loads(out)["status"] == "ok"

    def test_keep_alive_serves_pipelined_requests_in_order(self, server):
        pipelined = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                     b"GET /algorithms HTTP/1.1\r\nHost: x\r\n"
                     b"Connection: close\r\n\r\n")
        sock = connect(server)
        try:
            sock.sendall(pipelined)
            data = read_to_eof(sock)
        finally:
            sock.close()
        first_line, first, first_body, second = parse_response(data)
        assert json.loads(first_body)["status"] == "ok"
        assert first["connection"] == "keep-alive"
        second_line, _, second_body, rest = parse_response(second)
        assert second_line == "HTTP/1.1 200 OK"
        assert "algorithms" in json.loads(second_body)
        assert rest == b""

    @pytest.mark.parametrize("value", ["close", "Close", "CLOSE", "cLoSe"])
    def test_connection_close_in_any_case(self, server, value):
        raw = f"GET /healthz HTTP/1.1\r\nConnection: {value}\r\n\r\n"
        # No half-close: only the server's honouring of the header ends
        # the exchange before the socket timeout.
        status_line, headers, _, rest = exchange(server, raw.encode(),
                                                 half_close=False)
        assert status_of(status_line) == 200
        assert headers["connection"] == "close"
        assert rest == b""

    def test_expect_100_continue_is_served(self, server):
        body = json.dumps(REQUEST).encode()
        sock = connect(server, timeout=5)
        try:
            sock.sendall(b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
                         b"Expect: 100-continue\r\nConnection: close\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            interim = b""
            while b"\r\n\r\n" not in interim:
                chunk = sock.recv(65536)
                assert chunk, "closed before 100 Continue"
                interim += chunk
            head, _, early = interim.partition(b"\r\n\r\n")
            assert head == b"HTTP/1.1 100 Continue"
            sock.sendall(body)
            status_line, _, out, _ = parse_response(early + read_to_eof(sock))
        finally:
            sock.close()
        assert status_line == "HTTP/1.1 200 OK"
        assert json.loads(out)["algorithm"] == "memheft"

    def test_expect_100_continue_with_refused_length_gets_no_100(
            self, server):
        status_line, headers, body, _ = exchange(server, (
            b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
            b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1)), half_close=False)
        assert status_line == "HTTP/1.1 413 Request Entity Too Large"
        assert json.loads(body)["error"]["type"] == "bad_request"

    def test_body_cut_short_is_not_dispatched(self, server):
        before = server.app.n_requests
        sock = connect(server)
        try:
            sock.sendall(b"POST /schedule HTTP/1.1\r\nContent-Length: 100"
                         b"\r\n\r\n" + json.dumps(REQUEST).encode()[:40])
            sock.shutdown(socket.SHUT_WR)
            assert read_to_eof(sock) == b""
        finally:
            sock.close()
        assert server.app.n_requests == before


_KIB = 1024
FRAMING_ERRORS = {
    "request-line-over-64KiB":
        (b"GET /" + b"a" * (70 * _KIB) + b" HTTP/1.1\r\n\r\n", 400),
    "header-line-over-64KiB":
        (b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"a" * (70 * _KIB)
         + b"\r\n\r\n", 400),
    "head-over-64KiB":
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-Junk-%d: %s\r\n" % (i, b"a" * (20 * _KIB))
                    for i in range(4)) + b"\r\n", 400),
    "101-headers":
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n", 400),
    "http-2.0": (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
    "http-0.9": (b"GET /healthz\r\n", 400),
    "garbage": (b"\x16\x03\x01\x00\xa5\x01\x00\x00\xa1\x03\x03\r\n\r\n", 400),
    "blank-request-line": (b"\r\n\r\n", 400),
    "bad-content-length":
        (b"POST /schedule HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400),
    "negative-content-length":
        (b"POST /schedule HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 413),
    "oversized-content-length":
        (b"POST /schedule HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (MAX_BODY_BYTES + 1), 413),
}


class TestFramingErrors:
    """Each malformed request gets exactly one JSON ``bad_request`` answer
    with a status line, a Content-Length and ``Connection: close`` —
    never an HTML page, a status-less HTTP/0.9 body or a hang."""

    @pytest.mark.parametrize("raw, status", list(FRAMING_ERRORS.values()),
                             ids=list(FRAMING_ERRORS))
    def test_one_json_error_then_close(self, server, raw, status):
        before = server.app.n_requests
        status_line, headers, body, rest = exchange(server, raw)
        assert status_line == \
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["type"] == "bad_request"
        assert rest == b""
        assert server.app.n_requests == before


    def test_head_is_refused_once_it_passes_64KiB(self, server):
        """The head is not read past 64 KiB: the 400 comes while the
        client is still sending header lines."""
        sock = connect(server, timeout=5)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + b"".join(
                b"X-Junk-%d: %s\r\n" % (i, b"a" * (20 * _KIB))
                for i in range(4)))
            status_line, _, body, _ = parse_response(read_to_eof(sock))
        finally:
            sock.close()
        assert status_line == "HTTP/1.1 400 Bad Request"
        assert json.loads(body)["error"]["message"] == \
            "request head too large"


class TestDeadlines:
    @pytest.mark.parametrize("raw", ["soon", "", "1.5", "1" + "0" * 400],
                             ids=["word", "empty", "float", "huge"])
    def test_unparseable_deadline_is_ignored(self, server, raw):
        status_line, _, _, _ = exchange(server, request_bytes(
            "GET", "/healthz", headers=f"X-Deadline-Ms: {raw}\r\n"))
        assert status_of(status_line) == 200

    def test_negative_deadline_is_already_expired(self, server):
        status_line, _, body, _ = exchange(server, request_bytes(
            "GET", "/healthz", headers="X-Deadline-Ms: -500\r\n"))
        assert status_of(status_line) == 408
        assert json.loads(body)["error"]["type"] == "deadline_exceeded"

    @pytest.mark.parametrize("call", [
        lambda c: c.healthz(),
        lambda c: c.algorithms(),
        lambda c: c.metrics(),
        lambda c: c.schedule(dex(), PLATFORM),
        lambda c: c.batch([(dex(), PLATFORM, "memheft")]),
        lambda c: c.session_info("none"),
    ], ids=["healthz", "algorithms", "metrics", "schedule", "batch",
            "jobs"])
    def test_zero_budget_is_shed_everywhere(self, server, call):
        """The shed answer is the structured 408, never the endpoint's
        own body."""
        client = ServiceClient(server.host, server.port, timeout=5,
                               deadline=0.0)
        try:
            with pytest.raises(ServiceClientError) as err:
                call(client)
        finally:
            client.close()
        assert (err.value.status, err.value.err_type) == \
            (408, "deadline_exceeded")

    def test_generous_budget_is_served(self, server):
        with ServiceClient(server.host, server.port, timeout=5,
                           deadline=60.0) as client:
            resp = client.schedule(dex(), PLATFORM)
        assert resp.algorithm == "memheft"

    def test_budget_runs_while_waiting_for_a_dispatch_slot(self):
        """With every dispatch slot busy, a request waits; the budget
        counts from its arrival, so a short one is shed once a slot
        frees and a long one is served."""
        app = SpyApp()
        with ThreadedServer(app) as srv:
            holders = [connect(srv) for _ in range(DISPATCH_SLOTS)]
            for sock in holders:
                sock.sendall(request_bytes("GET", "/hold"))
            for _ in holders:
                assert app.holding.acquire(timeout=10)
            answers = {}

            def call(budget_ms):
                answers[budget_ms] = exchange(srv, request_bytes(
                    "GET", "/healthz",
                    headers=f"X-Deadline-Ms: {budget_ms}\r\n"))

            waiters = [threading.Thread(target=call, args=(ms,))
                       for ms in (200, 60000)]
            for t in waiters:
                t.start()
            time.sleep(0.5)
            assert not answers   # both still wait for a slot
            app.release.set()
            for t in waiters:
                t.join(10)
            for sock in holders:
                assert status_of(parse_response(read_to_eof(sock))[0]) == 200
                sock.close()
        assert status_of(answers[200][0]) == 408
        assert status_of(answers[60000][0]) == 200
        assert app.n_requests == DISPATCH_SLOTS + 1   # the shed one: never


class TestTraceHeaders:
    @pytest.mark.parametrize("headers, ctx", [
        ("", None),
        ("X-Trace-Id: \r\n", None),
        ("X-Span-Id: s1\r\n", None),
        ("X-Trace-Id: t1\r\n", ("t1", None)),
        ("X-Trace-Id: t1\r\nX-Span-Id: \r\n", ("t1", None)),
        ("X-Trace-Id: t1\r\nX-Span-Id: s1\r\n", ("t1", "s1")),
    ])
    def test_trace_context_reaches_the_app(self, spy_server, headers, ctx):
        status_line, _, _, _ = exchange(spy_server, request_bytes(
            "GET", "/healthz", headers=headers))
        assert status_of(status_line) == 200
        assert spy_server.app.contexts[-1] == ctx


class TestIdleTimeout:
    """The idle timeout bounds the wait for a request's head and body,
    never its handling or the response write."""

    def test_slow_handling_is_not_cut(self):
        app = SpyApp()
        with ThreadedServer(app, idle_timeout=0.2) as srv:
            timer = threading.Timer(0.6, app.release.set)
            timer.start()
            status_line, _, body, _ = exchange(
                srv, request_bytes("GET", "/hold"), half_close=False)
            timer.join()
        assert status_of(status_line) == 200
        assert json.loads(body)["status"] == "ok"

    def test_slow_reader_gets_the_whole_response(self):
        app = SpyApp()
        app.raw = (200, {}, b"x" * (8 << 20))
        with ThreadedServer(app, idle_timeout=0.2) as srv:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect((srv.host, srv.port))
            try:
                sock.sendall(request_bytes("GET", "/raw"))
                time.sleep(0.6)   # the server's write blocks meanwhile
                status_line, _, body, _ = parse_response(read_to_eof(sock))
            finally:
                sock.close()
        assert status_of(status_line) == 200
        assert len(body) == 8 << 20

    def test_slow_body_is_cut_and_not_dispatched(self):
        app = SpyApp()
        with ThreadedServer(app, idle_timeout=0.2) as srv:
            sock = connect(srv)
            try:
                sock.sendall(b"POST /schedule HTTP/1.1\r\n"
                             b"Content-Length: 10\r\n\r\n{\"gr")
                t0 = time.monotonic()
                assert read_to_eof(sock) == b""
                assert time.monotonic() - t0 < 5
            finally:
                sock.close()
        assert app.n_requests == 0


class TestLifecycle:
    def test_listen_backlog_holds_100_connections(self):
        srv = ServiceServer(ServiceApp(workers=1))   # listening, not serving
        socks = []
        try:
            for _ in range(100):
                socks.append(connect(srv, timeout=2))
        finally:
            for sock in socks:
                sock.close()
            srv.server_close()

    def test_ipv6_literal_host_is_served(self):
        probe = socket.socket(socket.AF_INET6)
        try:
            probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        finally:
            probe.close()
        with ThreadedServer(ServiceApp(workers=1), host="::1") as srv:
            with ServiceClient(srv.host, srv.port) as client:
                assert client.healthz()["status"] == "ok"

    def test_held_connection_gets_no_answer_after_stop(self):
        srv = ThreadedServer(ServiceApp(workers=2)).start()
        try:
            client = ServiceClient(srv.host, srv.port, timeout=10)
            results = client.batch([(dex(), PLATFORM, "memheft"),
                                    (dex(), PLATFORM, "memminmin")])
            assert all(r.schedule for r in results)   # ran on the pool
            held = connect(srv)
            held.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert held.recv(65536).startswith(b"HTTP/1.1 200 OK")
        finally:
            srv.stop()
        try:
            held.sendall(request_bytes("POST", "/batch", json.dumps(
                {"requests": [REQUEST, dict(REQUEST, algorithm="memminmin")]}
            ).encode()))
        except OSError:
            pass   # the peer is gone already
        assert read_to_eof(held) == b""
        held.close()
        client.close()
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
