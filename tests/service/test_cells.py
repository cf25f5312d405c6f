"""``POST /cells``: the service side of distributed experiment sharding.

App-level tests consume the NDJSON generator straight from
``ServiceApp.handle``; transport-level tests drive a live
:class:`ThreadedServer` through :meth:`ServiceClient.run_cells` (chunked
streaming on the wire).
"""

import json

import pytest

from repro import Platform
from repro.dags import small_rand_set
from repro.experiments.engine import remote_worker
from repro.experiments.sweep import _normalized_cell
from repro.io.json_io import from_cell_wire, to_cell_wire
from repro.service import ServiceApp, ServiceClient, ThreadedServer
from repro.service.app import PROTOCOL_VERSION
from repro.service.client import ServiceClientError


@remote_worker("test.square")
def _square_cell(payload, cache, cell):
    cache["calls"] = cache.get("calls", 0) + 1
    return payload * cell * cell


@remote_worker("test.explode")
def _explode_cell(payload, cache, cell):
    if cell == 13:
        raise RuntimeError("unlucky cell")
    return cell


def _cells_body(worker, payload, cells):
    return json.dumps({
        "worker": worker,
        "payload": to_cell_wire(payload),
        "cells": [to_cell_wire(c) for c in cells],
    }).encode()


def _drain(body):
    """Consume an app-level streamed body into parsed NDJSON rows."""
    raw = b"".join(body) if not isinstance(body, bytes) else body
    return [json.loads(line) for line in raw.splitlines()]


class TestCellsEndpoint:
    def test_executes_cells_in_order(self):
        app = ServiceApp(workers=1)
        status, headers, body = app.handle(
            "POST", "/cells", _cells_body("test.square", 2, [3, 1, 2]))
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert headers["X-Cells"] == "3"
        rows = _drain(body)
        assert rows[-1] == {"done": 3}
        results = [from_cell_wire(r["r"]) for r in rows[:-1]]
        assert results == [18, 2, 8]
        assert [r["i"] for r in rows[:-1]] == [0, 1, 2]

    def test_worker_exception_is_structured_row(self):
        app = ServiceApp(workers=1)
        status, _headers, body = app.handle(
            "POST", "/cells", _cells_body("test.explode", None, [1, 13, 2]))
        assert status == 200
        rows = _drain(body)
        assert rows[-1] == {"done": 3}
        assert from_cell_wire(rows[0]["r"]) == 1
        assert rows[1]["error"]["type"] == "cell_error"
        assert "unlucky cell" in rows[1]["error"]["message"]
        assert from_cell_wire(rows[2]["r"]) == 2

    def test_error_row_same_with_and_without_obs(self):
        from repro import obs
        from repro.service.app import _run_one_cell

        def run():
            return _run_one_cell(_explode_cell, None, {}, to_cell_wire(13),
                                 4)

        plain = run()
        with obs.observing() as st:
            observed = run()
            hist = st.registry.histogram("memsched_cell_seconds",
                                         mode="service")
            assert hist.count == 1
        assert observed == plain == {
            "i": 4, "error": {"type": "cell_error",
                              "message": "RuntimeError: unlucky cell"}}

    def test_unknown_worker_404(self):
        app = ServiceApp(workers=1)
        status, _headers, body = app.handle(
            "POST", "/cells", _cells_body("no.such.worker", None, [1]))
        assert status == 404
        assert json.loads(body)["error"]["type"] == "unknown_worker"

    def test_malformed_wire_400(self):
        app = ServiceApp(workers=1)
        body = json.dumps({"worker": "test.square", "payload": 1,
                           "cells": [{"__wire__": "rocket"}]}).encode()
        status, _headers, out = app.handle("POST", "/cells", body)
        assert status == 400
        assert json.loads(out)["error"]["type"] == "bad_request"

    @pytest.mark.parametrize("body", [
        b"[]", b'{"cells": [1]}', b'{"worker": "x", "cells": 3}',
        b'{"worker": 5, "cells": []}', b"not json",
    ])
    def test_bad_shapes_400(self, body):
        app = ServiceApp(workers=1)
        status, _headers, _out = app.handle("POST", "/cells", body)
        assert status == 400

    def test_get_method_rejected(self):
        app = ServiceApp(workers=1)
        status, _headers, _out = app.handle("GET", "/cells", b"")
        assert status == 405

    def test_healthz_counts_cells(self):
        app = ServiceApp(workers=1)
        _drain(app.handle("POST", "/cells",
                          _cells_body("test.square", 1, [1, 2]))[2])
        status, _headers, body = app.handle("GET", "/healthz", b"")
        health = json.loads(body)
        assert health["cells"] == {"requests": 1, "executed": 2}
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["kernel"] == {"active": "scalar",
                                    "available": ["scalar"]}


class TestCellsOverTheWire:
    def test_streamed_roundtrip(self):
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port)
            rows = client.run_cells(
                "test.square", to_cell_wire(3),
                [to_cell_wire(c) for c in range(5)])
            assert [from_cell_wire(r["r"]) for r in rows] == \
                [3 * c * c for c in range(5)]
            # Keep-alive must survive a streamed response.
            assert client.healthz()["status"] == "ok"
            client.close()

    def test_real_sweep_cell_worker(self):
        graphs = tuple(small_rand_set(2, 12))
        payload = (graphs, Platform(1, 1), ("memheft",), False, None)
        cells = [(0, 1.0), (1, 0.8)]
        expected = [_normalized_cell(payload, {}, c) for c in cells]
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port)
            rows = client.run_cells(
                "sweep.normalized", to_cell_wire(payload),
                [to_cell_wire(c) for c in cells])
            client.close()
        assert [from_cell_wire(r["r"]) for r in rows] == expected

    def test_error_status_raises(self):
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port)
            with pytest.raises(ServiceClientError) as exc_info:
                client.run_cells("no.such.worker", None, [to_cell_wire(1)])
            assert exc_info.value.status == 404
            client.close()

    @pytest.mark.slow
    def test_pool_workers_match_inprocess(self):
        graphs = tuple(small_rand_set(3, 15))
        payload = (graphs, Platform(1, 1), ("memheft", "memminmin"),
                   False, None)
        cells = [(gi, a) for gi in range(3) for a in (0.5, 0.75, 1.0)]
        serial = [_normalized_cell(payload, {}, c) for c in cells]
        with ThreadedServer(ServiceApp(workers=2)) as srv:
            client = ServiceClient(srv.host, srv.port, timeout=300.0)
            rows = client.run_cells(
                "sweep.normalized", to_cell_wire(payload),
                [to_cell_wire(c) for c in cells])
            client.close()
        assert [from_cell_wire(r["r"]) for r in rows] == serial
