"""ServiceApp protocol tests — no sockets, straight into ``handle()``.

The load-bearing property throughout: every body served for a scheduling
request — cold, cached, or inside a batch — is bit-identical to what a
direct library call serializes to.
"""

import hashlib
import json
import os
import signal
import threading
import time

import pytest

from repro.core.platform import Platform
from repro.core.validation import validate_schedule
from repro.dags.daggen import random_dag
from repro.dags.toy import dex
from repro.io.json_io import (
    canonical_json,
    graph_to_dict,
    platform_to_dict,
    schedule_to_dict,
)
from repro.scheduling.registry import (
    ENGINE_OPTIONED,
    SCHEDULERS,
    get_scheduler,
)
from repro.io.json_io import MAX_PROCESSORS
from repro.service import app as service_app
from repro.service.app import PROTOCOL_VERSION, ServiceApp

PLATFORM = Platform(n_blue=1, n_red=1, mem_blue=5, mem_red=5)


def post(app, path, payload):
    body = payload if isinstance(payload, bytes) else \
        json.dumps(payload).encode()
    return app.handle("POST", path, body)


def schedule_req(graph=None, platform=PLATFORM, algorithm="memheft",
                 **extra):
    req = {
        "graph": graph_to_dict(graph if graph is not None else dex()),
        "platform": platform_to_dict(platform),
        "algorithm": algorithm,
    }
    req.update(extra)
    return req


def direct_body_fields(graph, platform, algorithm, **kwargs):
    schedule = get_scheduler(algorithm)(graph, platform, **kwargs)
    peaks = validate_schedule(graph, platform, schedule)
    return {
        "algorithm": algorithm,
        "makespan": schedule.makespan,
        "peaks": [peaks[m] for m in platform.memories()],
        "schedule": schedule_to_dict(schedule),
    }


class TestSchedule:
    @pytest.mark.parametrize("algorithm", sorted(SCHEDULERS))
    def test_response_equals_direct_call(self, algorithm):
        app = ServiceApp()
        status, headers, body = post(app, "/schedule",
                                     schedule_req(algorithm=algorithm))
        assert status == 200
        assert headers["X-Cache"] == "miss"
        data = json.loads(body)
        expect = direct_body_fields(dex(), PLATFORM, algorithm)
        assert data["schedule"] == expect["schedule"]
        assert data["makespan"] == expect["makespan"]
        assert data["peaks"] == expect["peaks"]
        # The body is the canonical serialization of its own parse.
        assert body == canonical_json(data).encode()

    def test_warm_hit_is_byte_identical(self):
        app = ServiceApp()
        req = schedule_req()
        _, h1, cold = post(app, "/schedule", req)
        _, h2, warm = post(app, "/schedule", req)
        assert (h1["X-Cache"], h2["X-Cache"]) == ("miss", "hit")
        assert cold == warm
        assert app.cache.stats()["hits"] == 1

    def test_equivalent_but_reordered_body_still_hits(self):
        app = ServiceApp()
        req = schedule_req()
        post(app, "/schedule", req)
        # Same content, different key order and spacing: the raw-body fast
        # path misses, the canonical digest still hits.
        reordered = json.dumps(req, sort_keys=True, indent=2).encode()
        status, headers, body = app.handle("POST", "/schedule", reordered)
        assert status == 200
        assert headers["X-Cache"] == "hit"

    def test_default_algorithm_is_memheft(self):
        app = ServiceApp()
        req = schedule_req()
        del req["algorithm"]
        _, _, body = post(app, "/schedule", req)
        assert json.loads(body)["algorithm"] == "memheft"

    def test_comm_policy_option_changes_result_and_digest(self):
        g = random_dag(size=25, rng=5)
        app = ServiceApp()
        _, _, late = post(app, "/schedule", schedule_req(g, PLATFORM.unbounded()))
        _, h, eager = post(app, "/schedule", schedule_req(
            g, PLATFORM.unbounded(), options={"comm_policy": "eager"}))
        assert h["X-Cache"] == "miss"
        assert json.loads(late)["digest"] != json.loads(eager)["digest"]

    @pytest.mark.parametrize("algorithm", sorted(ENGINE_OPTIONED))
    def test_lazy_false_matches_lazy_true(self, algorithm):
        """``lazy`` is still accepted and hashed but selects nothing."""
        g = random_dag(size=30, rng=9)
        platform = Platform(n_blue=1, n_red=1, mem_blue=150, mem_red=150)
        app = ServiceApp()
        status_a, _, a = post(app, "/schedule",
                              schedule_req(g, platform, algorithm))
        status_b, _, b = post(app, "/schedule",
                              schedule_req(g, platform, algorithm,
                                           options={"lazy": False}))
        assert status_a == status_b == 200
        a, b = json.loads(a), json.loads(b)
        for field in ("schedule", "makespan", "peaks"):
            assert a[field] == b[field]
        assert a["digest"] != b["digest"]


class TestErrorPaths:
    @pytest.mark.parametrize("body,err_type", [
        (b"{not json", "bad_request"),
        (b"[1,2,3]", "bad_request"),
        (b"{}", "bad_request"),
        (json.dumps({"graph": 5, "platform": {}}).encode(), "bad_request"),
    ])
    def test_malformed_requests_are_400(self, body, err_type):
        app = ServiceApp()
        status, _, out = app.handle("POST", "/schedule", body)
        assert status == 400
        assert json.loads(out)["error"]["type"] == err_type

    @pytest.mark.parametrize("path", ["/schedule", "/batch", "/jobs"])
    def test_deeply_nested_body_is_400(self, path):
        body = b"[" * 100_000 + b"]" * 100_000
        status, _, out = ServiceApp().handle("POST", path, body)
        assert status == 400
        error = json.loads(out)["error"]
        assert error["type"] == "bad_request"
        assert error["message"] == "JSON body nested too deeply"

    def test_unknown_algorithm(self):
        status, _, out = post(ServiceApp(), "/schedule",
                              schedule_req(algorithm="quantum"))
        assert status == 400
        assert json.loads(out)["error"]["type"] == "unknown_algorithm"

    def test_unknown_option_rejected(self):
        status, _, out = post(ServiceApp(), "/schedule",
                              schedule_req(options={"frobnicate": 1}))
        assert status == 400

    def test_options_on_baseline_rejected(self):
        status, _, out = post(ServiceApp(), "/schedule",
                              schedule_req(algorithm="heft",
                                           options={"comm_policy": "eager"}))
        assert status == 400

    @pytest.mark.parametrize("value", ["false", "true", None, [], 0, 1,
                                       {}, 0.0])
    def test_non_boolean_lazy_rejected(self, value):
        status, _, out = post(ServiceApp(), "/schedule",
                              schedule_req(options={"lazy": value}))
        assert status == 400
        error = json.loads(out)["error"]
        assert error["type"] == "bad_request"
        assert "lazy must be true or false" in error["message"]

    def test_non_boolean_lazy_rejected_on_baseline(self):
        """A truthy non-boolean must not slip past the "takes no engine
        options" check by coercing to the default."""
        status, _, out = post(ServiceApp(), "/schedule",
                              schedule_req(algorithm="heft",
                                           options={"lazy": 1}))
        assert status == 400
        assert "lazy must be true or false" in \
            json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_lazy_accepted(self, value):
        status, _, _ = post(ServiceApp(), "/schedule",
                            schedule_req(options={"lazy": value}))
        assert status == 200

    def test_non_boolean_lazy_in_batch_is_per_instance_400(self):
        good = schedule_req()
        bad = schedule_req(options={"lazy": "false"})
        status, _, body = post(ServiceApp(), "/batch",
                               {"requests": [good, bad]})
        assert status == 200
        data = json.loads(body)
        assert "schedule" in data["results"][0]
        assert data["results"][1]["error"]["status"] == 400
        assert data["results"][1]["error"]["type"] == "bad_request"

    def test_class_mismatch(self):
        req = schedule_req(platform=Platform([1, 1, 1], [5, 5, 5]))
        status, _, out = post(ServiceApp(), "/schedule", req)
        assert status == 400
        assert "memory classes" in json.loads(out)["error"]["message"]

    def test_infeasible_is_422_and_not_cached(self):
        app = ServiceApp()
        req = schedule_req(platform=Platform(1, 1, 0.5, 0.5))
        status, _, out = post(app, "/schedule", req)
        assert status == 422
        assert json.loads(out)["error"]["type"] == "infeasible"
        assert len(app.cache) == 0
        # And the identical resubmission (raw-index alias path) re-errors.
        status2, _, out2 = post(app, "/schedule", req)
        assert status2 == 422

    def test_unknown_path_and_method(self):
        app = ServiceApp()
        assert app.handle("GET", "/nope", b"")[0] == 404
        assert app.handle("GET", "/schedule", b"")[0] == 405
        assert app.handle("POST", "/healthz", b"")[0] == 405

    @pytest.mark.parametrize("body", [
        b"", b"not json",
        json.dumps({"worker": "sweep.normalized", "payload": None,
                    "cells": [1]}).encode()])
    def test_cells_endpoint_is_gone(self, body):
        method, path = "POST /cells".split(" ")
        status, headers, out = ServiceApp().handle(method, path, body)
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        assert json.loads(out)["error"]["type"] == "not_found"

    def test_cyclic_graph_rejected(self):
        req = schedule_req()
        req["graph"]["edges"].append(
            {"src": req["graph"]["edges"][0]["dst"],
             "dst": req["graph"]["edges"][0]["src"], "size": 1, "comm": 1})
        status, _, out = post(ServiceApp(), "/schedule", req)
        assert status == 400


class TestBatch:
    def test_batch_elements_equal_schedule_bodies(self):
        app = ServiceApp()
        graphs = [random_dag(size=15, rng=s) for s in (1, 2, 3)]
        reqs = [schedule_req(g, PLATFORM.unbounded()) for g in graphs]
        status, _, body = post(app, "/batch", {"requests": reqs})
        assert status == 200
        data = json.loads(body)
        assert data["cached"] == [False, False, False]
        singles = [json.loads(post(ServiceApp(), "/schedule", r)[2])
                   for r in reqs]
        assert data["results"] == singles

    def test_batch_deduplicates_identical_instances(self):
        app = ServiceApp()
        req = schedule_req()
        status, _, body = post(app, "/batch", {"requests": [req, req, req]})
        data = json.loads(body)
        assert data["cached"] == [False, True, True]
        assert data["results"][0] == data["results"][1] == data["results"][2]
        assert app.cache.stats()["size"] == 1

    def test_batch_embeds_per_instance_errors(self):
        app = ServiceApp()
        good = schedule_req()
        bad = schedule_req(algorithm="quantum")
        infeasible = schedule_req(platform=Platform(1, 1, 0.5, 0.5))
        _, _, body = post(app, "/batch",
                          {"requests": [good, bad, infeasible]})
        data = json.loads(body)
        assert "schedule" in data["results"][0]
        assert data["results"][1]["error"]["type"] == "unknown_algorithm"
        assert data["results"][2]["error"]["type"] == "infeasible"

    def test_batch_serial_equals_workers(self):
        graphs = [random_dag(size=20, rng=s) for s in (4, 5)]
        reqs = [schedule_req(g, PLATFORM.unbounded()) for g in graphs]
        _, _, serial = post(ServiceApp(workers=1), "/batch",
                            {"requests": reqs})
        _, _, parallel = post(ServiceApp(workers=2), "/batch",
                              {"requests": reqs})
        assert serial == parallel

    def test_batch_shape_errors(self):
        app = ServiceApp()
        assert post(app, "/batch", {"nope": []})[0] == 400
        assert post(app, "/batch", {"requests": "x"})[0] == 400

    def test_empty_batch(self):
        status, _, body = post(ServiceApp(), "/batch", {"requests": []})
        assert status == 200
        assert json.loads(body) == {"cached": [], "results": []}


class TestRobustness:
    def test_internal_errors_become_500_not_exceptions(self, monkeypatch):
        app = ServiceApp()
        monkeypatch.setattr(ServiceApp, "_handle_schedule",
                            lambda self, body: 1 / 0)
        status, _, out = post(app, "/schedule", schedule_req())
        assert status == 500
        assert json.loads(out)["error"]["type"] == "internal"

    def test_infinity_in_platform_is_400_not_500(self):
        # Python's json emits/accepts Infinity literals; canonical JSON
        # rejects them — that must surface as the *client's* error.
        req = schedule_req()
        req["platform"] = {"n_blue": 1, "n_red": 1,
                           "mem_blue": float("inf"), "mem_red": 5}
        app = ServiceApp()
        status, _, out = post(app, "/schedule", req)
        assert status == 400
        assert json.loads(out)["error"]["type"] == "bad_request"

    @pytest.mark.parametrize("platform", [
        {"n_blue": 1, "n_red": 1, "mem_blue": "nan", "mem_red": 5},
        {"n_blue": 1.5, "n_red": 1, "mem_blue": 5, "mem_red": 5},
        {"proc_counts": [1, 1.5], "capacities": [5, 5]},
    ], ids=["nan-capacity", "fractional-n_blue", "fractional-proc_counts"])
    def test_malformed_platform_is_400(self, platform):
        req = schedule_req()
        req["platform"] = platform
        status, _, out = post(ServiceApp(), "/schedule", req)
        assert status == 400
        error = json.loads(out)["error"]
        assert error["type"] == "bad_request"
        assert error["message"].startswith("malformed graph/platform")

    @pytest.mark.parametrize("platform, key", [
        ({"n_blue": 1, "n_red": 1, "capacities": [10, 10]}, "capacities"),
        ({"proc_counts": [1, 1], "mem_blue": 10, "mem_red": 10},
         "mem_blue"),
        ({"n_blue": 1, "n_red": 1, "capacity": 10}, "capacity"),
    ], ids=["dual-with-capacities", "kary-with-mem_blue", "typo-capacity"])
    def test_platform_key_outside_its_form_is_400(self, platform, key):
        """A stray bound used to be dropped: the instance scheduled
        unbounded (peaks 21 > 10) instead of failing."""
        req = schedule_req(random_dag(size=8, rng=1))
        req["platform"] = platform
        status, _, out = post(ServiceApp(), "/schedule", req)
        assert status == 400
        error = json.loads(out)["error"]
        assert error["type"] == "bad_request"
        assert error["message"].startswith("malformed graph/platform")
        assert key in error["message"]

    def test_infinity_instance_does_not_poison_batch(self):
        good = schedule_req()
        bad = schedule_req()
        bad["platform"] = {"n_blue": 1, "n_red": 1,
                           "mem_blue": float("inf"), "mem_red": 5}
        status, _, body = post(ServiceApp(), "/batch",
                               {"requests": [good, bad]})
        assert status == 200
        data = json.loads(body)
        assert "schedule" in data["results"][0]
        assert data["results"][1]["error"]["status"] == 400

    def test_batch_pool_is_persistent_across_requests(self):
        app = ServiceApp(workers=2)
        graphs = [random_dag(size=12, rng=s) for s in (41, 42, 43, 44)]
        reqs = [schedule_req(g, PLATFORM.unbounded()) for g in graphs]
        assert post(app, "/batch", {"requests": reqs[:2]})[0] == 200
        pool = app._pool
        assert pool is not None
        assert post(app, "/batch", {"requests": reqs[2:]})[0] == 200
        assert app._pool is pool   # reused, not respawned
        app.close()
        assert app._pool is None


def _kill_one_pool_worker(app):
    """SIGKILL one of the app's own batch-pool workers and wait until the
    executor has noticed, so the next dispatch deterministically meets a
    broken pool."""
    pool = app._pool
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken:
        assert time.monotonic() < deadline, "pool never noticed the kill"
        time.sleep(0.01)


class TestPoolSupervision:
    """A worker-process death under ``/batch`` is supervised: the pool is
    rebuilt and the batch retried (same bytes), or — with no restart
    budget — answered with a structured 500, never a hang."""

    @staticmethod
    def batch(seeds):
        graphs = [random_dag(size=12, rng=s) for s in seeds]
        return {"requests": [schedule_req(g, PLATFORM.unbounded())
                             for g in graphs]}

    def test_killed_worker_is_restarted_with_serial_bytes(self):
        app = ServiceApp(workers=2)
        try:
            assert post(app, "/batch", self.batch((61, 62)))[0] == 200
            _kill_one_pool_worker(app)
            status, _, body = post(app, "/batch", self.batch((63, 64)))
            assert status == 200
            assert body == post(ServiceApp(workers=1), "/batch",
                                self.batch((63, 64)))[2]
            assert app.n_pool_restarts >= 1
        finally:
            app.close()

    def test_exhausted_restart_budget_is_structured_500(self, monkeypatch):
        monkeypatch.setattr(service_app, "POOL_RESTARTS", 0)
        app = ServiceApp(workers=2)
        try:
            assert post(app, "/batch", self.batch((71, 72)))[0] == 200
            _kill_one_pool_worker(app)
            answer = []
            worker = threading.Thread(target=lambda: answer.append(
                post(app, "/batch", self.batch((73, 74)))), daemon=True)
            worker.start()
            worker.join(timeout=60.0)
            assert not worker.is_alive(), "/batch hung on a dead pool"
            status, _, body = answer[0]
            assert status == 500
            assert json.loads(body)["error"]["type"] == "worker_pool"
            assert app.n_pool_restarts == 0
        finally:
            app.close()


HUGE = 10 ** 400   # a JSON integer too large for a float


def _dual():
    return {"graph": graph_to_dict(dex()),
            "platform": platform_to_dict(Platform(1, 1, 5, 5,
                                                  speeds=[1.0, 2.0]))}


def _kary():
    return {"graph": {"n_classes": 3,
                      "tasks": [{"id": "a", "times": [1, 2, 3]},
                                {"id": "b", "times": [2, 1, 1]}],
                      "edges": [{"src": "a", "dst": "b", "size": 1,
                                 "comm": 1}]},
            "platform": {"proc_counts": [1, 1, 1], "capacities": [9, 9, 9]}}


#: Every request field decoded to a float: ``(instance, path to the
#: field, message fragment)``.
HUGE_FIELDS = {
    "w_blue": (_dual, ("graph", "tasks", 1, "w_blue"), "processing times of"),
    "times": (_kary, ("graph", "tasks", 0, "times", 2),
              "processing times of"),
    "size": (_dual, ("graph", "edges", 0, "size"), "size/comm of"),
    "comm": (_kary, ("graph", "edges", 0, "comm"), "size/comm of"),
    "mem_blue": (_dual, ("platform", "mem_blue"), "memory capacity too large"),
    "capacities": (_kary, ("platform", "capacities", 2),
                   "memory capacity too large"),
    "speeds": (_dual, ("platform", "speeds", 1), "speeds must be finite"),
}


def huge_instance(field):
    """``(request, message fragment)`` with ``field`` set to ``HUGE``."""
    make, path, fragment = HUGE_FIELDS[field]
    req = make()
    target = req
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = HUGE
    return req, fragment


class TestHugeNumbers:
    """A JSON integer too large for a float is the client's error (400),
    on every endpoint, never a 500."""

    @pytest.mark.parametrize("field", sorted(HUGE_FIELDS))
    def test_schedule_is_400(self, field):
        req, fragment = huge_instance(field)
        status, _, out = post(ServiceApp(), "/schedule", req)
        assert status == 400
        error = json.loads(out)["error"]
        assert error["type"] == "bad_request"
        assert fragment in error["message"]

    @pytest.mark.parametrize("field", sorted(HUGE_FIELDS))
    def test_batch_reports_a_per_instance_error(self, field):
        req, fragment = huge_instance(field)
        status, _, out = post(ServiceApp(), "/batch",
                              {"requests": [schedule_req(), req]})
        assert status == 200
        good, bad = json.loads(out)["results"]
        assert "schedule" in good
        assert bad["error"]["status"] == 400
        assert fragment in bad["error"]["message"]

    @pytest.mark.parametrize("field", sorted(HUGE_FIELDS))
    def test_jobs_is_400(self, field):
        req, fragment = huge_instance(field)
        status, _, out = post(ServiceApp(), "/jobs", req)
        assert status == 400
        assert fragment in json.loads(out)["error"]["message"]

    def test_jobs_release_time_is_400(self):
        status, _, out = post(ServiceApp(), "/jobs", {
            "graph": graph_to_dict(dex()),
            "platform": platform_to_dict(PLATFORM), "release_time": HUGE})
        assert status == 400
        assert "release time must be finite" in \
            json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("path", ["/schedule", "/batch", "/jobs"])
    def test_integer_past_the_digit_limit_is_400(self, path):
        # json.loads refuses integers of more than 4300 digits outright.
        body = b'{"graph": ' + b"1" * 5000 + b"}"
        status, _, out = post(ServiceApp(), path, body)
        assert status == 400
        assert json.loads(out)["error"]["type"] == "bad_request"


class TestProcessorLimit:
    """More than ``MAX_PROCESSORS`` processors is refused before any
    per-processor state is built."""

    @pytest.mark.parametrize("platform_d", [
        {"n_blue": MAX_PROCESSORS, "n_red": 1, "mem_blue": 5, "mem_red": 5},
        {"proc_counts": [MAX_PROCESSORS, 1], "capacities": [5, 5]},
    ], ids=["dual", "k-ary"])
    @pytest.mark.parametrize("path", ["/schedule", "/batch", "/jobs"])
    def test_limit_plus_one_is_400(self, path, platform_d):
        req = {"graph": graph_to_dict(dex()), "platform": platform_d}
        status, _, out = post(ServiceApp(), path,
                              {"requests": [req]} if path == "/batch"
                              else req)
        if path == "/batch":
            assert status == 200
            error = json.loads(out)["results"][0]["error"]
        else:
            error = json.loads(out)["error"]
        assert error["status"] == 400
        assert f"at most {MAX_PROCESSORS} processors" in error["message"]


class TestJobsSubmit:
    @staticmethod
    def submit(app, **extra):
        payload = {"session": "s", "platform": platform_to_dict(PLATFORM),
                   "graph": graph_to_dict(dex())}
        payload.update(extra)
        status, _, body = post(app, "/jobs", payload)
        return status, json.loads(body)

    @pytest.mark.parametrize("job_id", [5, ["x"], {"id": "x"}, 1.5, True])
    def test_non_string_job_id_is_400(self, job_id):
        app = ServiceApp()
        status, out = self.submit(app, job_id=job_id)
        assert status == 400
        assert out["error"]["type"] == "bad_request"
        assert "'job_id' must be a string" in out["error"]["message"]
        # Nothing was created for the rejected body.
        health = json.loads(app.handle("GET", "/healthz", b"")[2])
        assert health["sessions"]["count"] == 0

    def test_rejected_submission_takes_no_arrival_index(self):
        app = ServiceApp()
        status, out = self.submit(app, job_id="j1")
        assert (status, out["arrival_index"]) == (200, 0)
        status, out = self.submit(app, job_id="j1")
        assert status == 400 and "duplicate" in out["error"]["message"]
        status, out = self.submit(app, job_id="a/b")
        assert status == 400
        status, out = self.submit(app, job_id="j2")
        assert (status, out["arrival_index"]) == (200, 1)
        status, out = self.submit(app)
        assert (out["job_id"], out["arrival_index"]) == ("job-0002", 2)


class TestRawBodyIndex:
    """The raw-body index maps the sha256 of exact request bytes to the
    canonical digest: it is an LRU bounded by the cache capacity, and a
    hit through it skips parsing."""

    @staticmethod
    def raw_key(body):
        return hashlib.sha256(body).digest()

    def bodies(self, n):
        return [json.dumps(schedule_req(random_dag(size=8, rng=40 + i),
                                        PLATFORM.unbounded())).encode()
                for i in range(n)]

    def test_bounded_by_cache_capacity(self):
        app = ServiceApp(cache_size=2)
        for body in self.bodies(4):
            assert app.handle("POST", "/schedule", body)[0] == 200
        assert len(app._raw_index) == 2
        assert len(app.cache) == 2

    def test_resubmission_refreshes_recency(self):
        app = ServiceApp(cache_size=2)
        a, b, c = self.bodies(3)
        for body in (a, b, a, c):    # the repeat of a makes b the oldest
            app.handle("POST", "/schedule", body)
        assert list(app._raw_index) == [self.raw_key(a), self.raw_key(c)]

    def test_raw_hit_skips_parsing(self, monkeypatch):
        import repro.service.app as app_mod

        app = ServiceApp()
        body = json.dumps(schedule_req()).encode()
        _, _, cold = app.handle("POST", "/schedule", body)

        def no_parse(req):
            raise AssertionError("raw-body hit parsed the request")

        monkeypatch.setattr(app_mod, "parse_request", no_parse)
        status, headers, warm = app.handle("POST", "/schedule", body)
        assert (status, headers["X-Cache"]) == (200, "hit")
        assert warm == cold

    def test_alias_outliving_its_body_recomputes_same_bytes(self):
        # /batch shares the cache but not the raw index, so it can evict
        # a body whose raw alias is still indexed.
        app = ServiceApp(cache_size=1)
        a, b = self.bodies(2)
        _, _, first = app.handle("POST", "/schedule", a)
        app.handle("POST", "/batch",
                   b'{"requests":[' + b + b']}')
        assert self.raw_key(a) in app._raw_index
        status, headers, again = app.handle("POST", "/schedule", a)
        assert (status, headers["X-Cache"]) == (200, "miss")
        assert again == first


class TestCacheSharing:
    def test_batch_hit_refreshes_recency_for_schedule(self):
        app = ServiceApp(cache_size=2)
        a, b, c = (schedule_req(random_dag(size=8, rng=s),
                                PLATFORM.unbounded()) for s in (51, 52, 53))
        post(app, "/schedule", a)
        post(app, "/schedule", b)
        status, _, body = post(app, "/batch", {"requests": [a]})
        assert status == 200 and body.startswith(b'{"cached":[true]')
        post(app, "/schedule", c)    # evicts b: the batch hit touched a
        assert post(app, "/schedule", a)[1]["X-Cache"] == "hit"
        assert post(app, "/schedule", b)[1]["X-Cache"] == "miss"

    def test_healthz_cache_block_tracks_eviction(self):
        app = ServiceApp(cache_size=1)
        for s in (61, 62):
            post(app, "/schedule",
                 schedule_req(random_dag(size=8, rng=s), PLATFORM.unbounded()))
        _, _, body = app.handle("GET", "/healthz", b"")
        assert json.loads(body)["cache"] == {
            "size": 1, "capacity": 1, "hits": 0, "misses": 2,
            "evictions": 1}


class TestIntrospection:
    def test_algorithms_lists_registry(self):
        _, _, body = ServiceApp().handle("GET", "/algorithms", b"")
        algos = json.loads(body)["algorithms"]
        assert [a["name"] for a in algos] == sorted(SCHEDULERS)
        by_name = {a["name"]: a for a in algos}
        assert by_name["memheft"]["memory_aware"] is True
        assert by_name["heft"]["baseline"] is True
        # Every algorithm is classified exactly one way.
        for a in algos:
            assert a["memory_aware"] != a["baseline"], a
        assert by_name["sufferage"]["baseline"] is True
        assert by_name["memsufferage"]["memory_aware"] is True

    def test_healthz_counts_requests(self):
        app = ServiceApp(workers=3, cache_size=7)
        post(app, "/schedule", schedule_req())
        _, _, body = app.handle("GET", "/healthz", b"")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == 3
        assert health["n_requests"] == 2
        assert health["cache"]["capacity"] == 7
        assert health["cache"]["size"] == 1

    def test_cache_dir_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            ServiceApp(cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_healthz_reports_protocol_7_without_kernel_or_persistence(self):
        _, _, body = ServiceApp().handle("GET", "/healthz", b"")
        health = json.loads(body)
        assert PROTOCOL_VERSION == 7
        assert health["protocol"] == 7
        for key in ("cells", "faults", "cell_wire", "kernel"):
            assert key not in health
        assert "persistent" not in health["cache"]
        assert "cell_requests" not in health["metrics_summary"]
        assert "cells_executed" not in health["metrics_summary"]
