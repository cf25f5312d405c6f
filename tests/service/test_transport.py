"""HTTP transport tests: response framing, header parsing and deadline
shedding in :mod:`repro.service.server`.

Every response is written whole with a ``Content-Length`` (there is no
chunked path), so the framing checks run over every endpoint, error
answers included.
"""

import json
import socket
import time

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
from repro.service.server import (
    _STATUS_TEXT,
    MAX_BODY_BYTES,
    ServiceServer,
    _render,
)

PLATFORM = Platform(n_blue=1, n_red=1, mem_blue=5, mem_red=5)
REQUEST = {"graph": graph_to_dict(dex()),
           "platform": platform_to_dict(PLATFORM),
           "algorithm": "memheft"}


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(ServiceApp(workers=1)) as srv:
        ServiceClient(srv.host, srv.port).wait_until_ready()
        yield srv


def exchange(server, raw_request):
    """Send raw request bytes, read until the server closes; returns
    ``(status, headers, body)`` with lower-cased header names."""
    sock = socket.create_connection((server.host, server.port), timeout=10)
    try:
        sock.sendall(raw_request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    finally:
        sock.close()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def request_bytes(method, path, body=b""):
    return (f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1") + body


class TestRender:
    @pytest.mark.parametrize("status", sorted(_STATUS_TEXT))
    def test_status_line_and_length(self, status):
        body = b'{"x":1}'
        out = _render(status, {}, body, keep_alive=True)
        head, _, rest = out.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == f"HTTP/1.1 {status} {_STATUS_TEXT[status]}"
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: keep-alive" in lines
        assert rest == body

    def test_unknown_status_gets_generic_reason(self):
        out = _render(418, {}, b"", keep_alive=False)
        assert out.startswith(b"HTTP/1.1 418 Error\r\n")
        assert b"Connection: close" in out

    def test_content_type_defaults_to_json_but_is_overridable(self):
        plain = _render(200, {}, b"", keep_alive=True)
        assert b"Content-Type: application/json" in plain
        text = _render(200, {"Content-Type": "text/plain"}, b"",
                       keep_alive=True)
        assert b"Content-Type: text/plain" in text
        assert b"application/json" not in text

    def test_caller_cannot_override_framing_headers(self):
        out = _render(200, {"Content-Length": "999", "Connection": "x"},
                      b"abc", keep_alive=False)
        assert b"Content-Length: 3\r\n" in out
        assert b"Connection: close" in out
        assert b"999" not in out


class TestHeaderParsing:
    @pytest.mark.parametrize("raw", ["soon", "", "1.5"])
    def test_unparseable_deadline_is_ignored(self, raw):
        assert ServiceServer._deadline_of({"x-deadline-ms": raw}) is None

    def test_absent_deadline(self):
        assert ServiceServer._deadline_of({}) is None

    def test_negative_deadline_is_already_expired(self):
        before = time.monotonic()
        expires = ServiceServer._deadline_of({"x-deadline-ms": "-500"})
        assert before <= expires <= time.monotonic()

    def test_deadline_is_relative_to_now(self):
        before = time.monotonic()
        expires = ServiceServer._deadline_of({"x-deadline-ms": "2500"})
        assert before + 2.5 <= expires <= time.monotonic() + 2.5

    @pytest.mark.parametrize("headers, ctx", [
        ({}, None),
        ({"x-trace-id": ""}, None),
        ({"x-span-id": "s1"}, None),
        ({"x-trace-id": "t1"}, ("t1", None)),
        ({"x-trace-id": "t1", "x-span-id": ""}, ("t1", None)),
        ({"x-trace-id": "t1", "x-span-id": "s1"}, ("t1", "s1")),
    ])
    def test_trace_context(self, headers, ctx):
        assert ServiceServer._trace_ctx_of(headers) == ctx


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
        got, headers, out = exchange(server,
                                     request_bytes(method, path, body))
        assert got == status
        assert int(headers["content-length"]) == len(out)
        assert "transfer-encoding" not in headers
        assert headers["connection"] == "close"
        if status != 200:
            assert json.loads(out)["error"]["status"] == status

    def test_lowercase_method_is_normalised(self, server):
        status, _, out = exchange(server, request_bytes("get", "/healthz"))
        assert status == 200
        assert json.loads(out)["status"] == "ok"

    @pytest.mark.parametrize("length", [-1, MAX_BODY_BYTES + 1])
    def test_out_of_range_content_length_is_413(self, server, length):
        raw = (f"POST /schedule HTTP/1.1\r\nContent-Length: {length}\r\n"
               f"\r\n").encode()
        status, headers, out = exchange(server, raw)
        assert status == 413
        assert int(headers["content-length"]) == len(out)
        assert json.loads(out)["error"]["type"] == "bad_request"

    def test_keep_alive_serves_pipelined_requests_in_order(self, server):
        pipelined = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                     b"GET /algorithms HTTP/1.1\r\nHost: x\r\n"
                     b"Connection: close\r\n\r\n")
        sock = socket.create_connection((server.host, server.port),
                                        timeout=10)
        try:
            sock.sendall(pipelined)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        finally:
            sock.close()
        first_head, _, rest = data.partition(b"\r\n\r\n")
        length = int([line for line in first_head.split(b"\r\n")
                      if line.lower().startswith(b"content-length")][0]
                     .split(b":")[1])
        first_body, second = rest[:length], rest[length:]
        assert json.loads(first_body)["status"] == "ok"
        assert b"Connection: keep-alive" in first_head
        second_head, _, second_body = second.partition(b"\r\n\r\n")
        assert second_head.startswith(b"HTTP/1.1 200 OK")
        assert "algorithms" in json.loads(second_body)


class TestDeadlineShedding:
    """A zero budget expires before dispatch on every endpoint; the shed
    answer is the structured 408, never the endpoint's own body."""

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
