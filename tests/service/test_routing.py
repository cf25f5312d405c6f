"""ServiceApp routing and exposition: the endpoint table (no cell
endpoint since v6), method checks, per-endpoint metric labels, the
synthesized ``/metrics`` families, and byte identity of ``/batch`` over
the worker pool and across service restarts for every algorithm."""

import json

import pytest

from repro import obs
from repro.core.platform import Platform
from repro.dags.daggen import random_dag
from repro.io.json_io import graph_to_dict, platform_to_dict
from repro.scheduling.registry import SCHEDULERS
from repro.service.app import PROTOCOL_VERSION, ServiceApp

PLATFORM = Platform(n_blue=1, n_red=1, mem_blue=5, mem_red=5)


def schedule_req(graph, algorithm="memheft"):
    return {"graph": graph_to_dict(graph),
            "platform": platform_to_dict(PLATFORM.unbounded()),
            "algorithm": algorithm}


def post(app, path, payload):
    return app.handle("POST", path, json.dumps(payload).encode())


def metric_samples(text):
    """``{series: value}`` from a Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            out[series] = float(value)
    return out


class TestRouting:
    @pytest.mark.parametrize("request_line, allowed", [
        ("GET /schedule", "POST"),
        ("PUT /schedule", "POST"),
        ("GET /batch", "POST"),
        ("DELETE /batch", "POST"),
        ("POST /algorithms", "GET"),
        ("POST /healthz", "GET"),
        ("POST /metrics", "GET"),
        ("PUT /jobs", "GET"),
        ("POST /jobs/job-0000", "GET"),
        ("DELETE /jobs/job-0000", "GET"),
    ])
    def test_wrong_method_is_typed_405(self, request_line, allowed):
        method, path = request_line.split(" ")
        status, headers, body = ServiceApp().handle(method, path, b"{}")
        assert status == 405
        assert headers["Content-Type"] == "application/json"
        err = json.loads(body)["error"]
        assert (err["status"], err["type"]) == (405, "method_not_allowed")
        assert err["message"] == f"{path} only accepts {allowed}"

    @pytest.mark.parametrize("request_line", [
        "GET /", "POST /cells", "GET /cells", "PUT /cells",
        "POST /cells/stream", "GET /SCHEDULE", "POST /schedule/",
        "GET /healthz/deep", "POST /batches",
    ])
    def test_unknown_path_is_typed_404(self, request_line):
        method, path = request_line.split(" ")
        status, _, body = ServiceApp().handle(
            method, path, b'{"worker": "sweep.normalized", "cells": []}')
        assert status == 404
        err = json.loads(body)["error"]
        assert (err["status"], err["type"]) == (404, "not_found")
        assert repr(path) in err["message"]

    def test_query_string_does_not_change_the_route(self):
        app = ServiceApp()
        assert app.handle("GET", "/healthz?verbose=1", b"")[0] == 200
        assert app.handle("GET", "/algorithms?x", b"")[0] == 200

    def test_healthz_key_set(self):
        _, _, body = ServiceApp().handle("GET", "/healthz", b"")
        health = json.loads(body)
        assert sorted(health) == [
            "cache", "digest_schema", "metrics_summary",
            "n_requests", "pool_restarts", "protocol", "sessions",
            "status", "uptime_s", "workers"]
        assert sorted(health["metrics_summary"]) == [
            "cache_hit_rate", "observability", "pool_restarts", "requests",
            "uptime_s"]
        assert health["protocol"] == PROTOCOL_VERSION


class TestEndpointLabels:
    @pytest.mark.parametrize("path, label", [
        ("/healthz", "/healthz"),
        ("/healthz?x=1", "/healthz"),
        ("/jobs?session=s", "/jobs"),
        ("/jobs/job-0000", "/jobs"),
        ("/cells", "other"),
        ("/no/such/path", "other"),
    ])
    def test_label_is_bounded(self, path, label):
        app = ServiceApp()
        with obs.observing() as st:
            # a registry inherited from MEMSCHED_OBS=1 may hold counts
            before = metric_samples(st.registry.render())
            status, _, _ = app.handle("GET", path, b"")
            after = metric_samples(st.registry.render())
        grown = {k: v - before.get(k, 0.0) for k, v in after.items()
                 if k.startswith("memsched_http_requests_total")
                 and v != before.get(k, 0.0)}
        assert grown == {f'memsched_http_requests_total'
                         f'{{endpoint="{label}",status="{status}"}}': 1}


class TestMetricsExposition:
    @pytest.mark.parametrize("name, kind, value", [
        ("memsched_workers", "gauge", 1),
        ("memsched_requests_total", "counter", 3),
        ("memsched_pool_restarts_total", "counter", 0),
        ("memsched_cache_hits_total", "counter", 1),
        ("memsched_cache_misses_total", "counter", 1),
        ("memsched_cache_evictions_total", "counter", 0),
        ("memsched_cache_size", "gauge", 1),
        ("memsched_cache_capacity", "gauge", 1024),
    ])
    def test_synthesized_family(self, name, kind, value):
        app = ServiceApp()
        req = schedule_req(random_dag(size=8, rng=5))
        post(app, "/schedule", req)
        post(app, "/schedule", req)
        _, headers, body = app.handle("GET", "/metrics", b"")
        text = body.decode()
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert f"# TYPE {name} {kind}" in text
        assert f"# HELP {name} " in text
        assert metric_samples(text)[name] == value

    @pytest.mark.parametrize("name, value", [
        ("memsched_cache_misses_total", 2),
        ("memsched_cache_evictions_total", 1),
        ("memsched_cache_size", 1),
        ("memsched_cache_capacity", 1),
    ])
    def test_cache_family_after_eviction(self, name, value):
        app = ServiceApp(cache_size=1)
        for s in (7, 8):
            post(app, "/schedule", schedule_req(random_dag(size=8, rng=s)))
        _, _, body = app.handle("GET", "/metrics", b"")
        assert metric_samples(body.decode())[name] == value

    def test_uptime_is_exposed(self):
        _, _, body = ServiceApp().handle("GET", "/metrics", b"")
        assert metric_samples(body.decode())["memsched_uptime_seconds"] >= 0

    @pytest.mark.parametrize("observed", [False, True])
    def test_no_cell_or_fault_families(self, observed):
        app = ServiceApp()
        post(app, "/schedule", schedule_req(random_dag(size=8, rng=6)))
        if observed:
            with obs.observing():
                text = app.handle("GET", "/metrics", b"")[2].decode()
        else:
            text = app.handle("GET", "/metrics", b"")[2].decode()
        names = {line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        assert "memsched_requests_total" in names
        assert not [n for n in names
                    if n.startswith(("memsched_cells_", "memsched_fault_"))]


@pytest.fixture(scope="module")
def pool_app():
    app = ServiceApp(workers=2)
    yield app
    app.close()


class TestPerAlgorithmIdentity:
    @pytest.mark.parametrize("algorithm", sorted(SCHEDULERS))
    def test_pool_batch_equals_schedule_bodies(self, pool_app, algorithm):
        reqs = [schedule_req(random_dag(size=14, rng=s), algorithm)
                for s in (21, 22, 23)]
        status, _, body = post(pool_app, "/batch", {"requests": reqs})
        assert status == 200
        singles = [post(ServiceApp(), "/schedule", r)[2] for r in reqs]
        assert body == (b'{"cached":[false,false,false],"results":['
                        + b",".join(singles) + b"]}")

    @pytest.mark.parametrize("algorithm", sorted(SCHEDULERS))
    def test_restart_recomputes_byte_identical_body(self, algorithm):
        # The cache is in-memory: a restarted service starts cold, runs
        # the scheduler (and the validator) again and answers the same
        # bytes.
        req = schedule_req(random_dag(size=14, rng=31), algorithm)
        bodies = []
        for _ in range(2):
            app = ServiceApp()
            status, headers, body = post(app, "/schedule", req)
            app.close()
            assert (status, headers["X-Cache"]) == (200, "miss")
            bodies.append(body)
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("algorithm", sorted(SCHEDULERS))
    def test_restart_recomputes_byte_identical_batch(self, algorithm):
        reqs = [schedule_req(random_dag(size=12, rng=s), algorithm)
                for s in (32, 33)]
        bodies = []
        for _ in range(2):
            app = ServiceApp()
            status, _, body = post(app, "/batch", {"requests": reqs})
            app.close()
            assert status == 200
            assert body.startswith(b'{"cached":[false,false]')
            bodies.append(body)
        assert bodies[0] == bodies[1]
