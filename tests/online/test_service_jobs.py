"""The /jobs surface: session lifecycle over HTTP semantics (straight
into ``ServiceApp.handle``), config conflict detection, error paths and
per-session locking under concurrent submitters."""

import json
import threading

import pytest

from repro.core.platform import Platform
from repro.dags.daggen import random_dag
from repro.dags.toy import dex
from repro.io.json_io import graph_to_dict, platform_to_dict
from repro.service.app import PROTOCOL_VERSION, ServiceApp

pytest.importorskip("numpy")

PLATFORM = Platform(n_blue=1, n_red=1)


def submit(app, graph=None, session="s", release=0.0, platform=PLATFORM,
           **extra):
    payload = {
        "session": session,
        "release_time": release,
        "graph": graph_to_dict(graph if graph is not None else dex()),
    }
    if platform is not None:
        payload["platform"] = platform_to_dict(platform)
    payload.update(extra)
    status, _, body = app.handle("POST", "/jobs",
                                 json.dumps(payload).encode())
    return status, json.loads(body)


def get(app, path):
    status, _, body = app.handle("GET", path, b"")
    return status, json.loads(body)


class TestSubmit:
    def test_submit_plans_and_reports(self):
        app = ServiceApp()
        status, out = submit(app)
        assert status == 200
        assert out["job_id"] == "job-0000"
        assert out["state"] == "scheduled"
        assert out["planned"] == ["job-0000"]
        assert out["makespan"] > 0.0
        assert out["n_pending"] == 0

    def test_protocol_version_bumped_for_jobs(self):
        assert PROTOCOL_VERSION >= 5
        app = ServiceApp()
        status, out = get(app, "/healthz")
        assert status == 200
        assert out["protocol"] == PROTOCOL_VERSION
        assert out["sessions"] == {"count": 0, "jobs": 0, "pending": 0}

    def test_healthz_counts_sessions(self):
        app = ServiceApp()
        submit(app, session="a")
        submit(app, session="b")
        submit(app, session="b")
        _, out = get(app, "/healthz")
        assert out["sessions"] == {"count": 2, "jobs": 3, "pending": 0}

    def test_get_job_roundtrip(self):
        app = ServiceApp()
        _, sub = submit(app)
        status, out = get(app, f"/jobs/{sub['job_id']}?session=s")
        assert status == 200
        assert out["session"] == "s"
        assert out["state"] == "scheduled"
        assert len(out["tasks"]) == dex().n_tasks
        assert all(t["finish"] > t["start"] >= 0.0 for t in out["tasks"])

    def test_session_info_carries_journal(self):
        app = ServiceApp()
        submit(app)
        status, out = get(app, "/jobs?session=s")
        assert status == 200
        header = json.loads(out["journal"].split("\n", 1)[0])
        assert header["kind"] == "online-journal"
        assert out["summary"]["n_planned"] == 1

    def test_empty_job_ends_scheduled(self):
        from repro.core.graph import TaskGraph

        app = ServiceApp()
        status, out = submit(app, graph=TaskGraph("empty"))
        assert status == 200
        assert out["state"] == "scheduled"
        assert out["planned"] == ["job-0000"]
        assert out["makespan"] == 0.0
        status, job = get(app, "/jobs/job-0000?session=s")
        assert status == 200
        assert job["state"] == "scheduled"
        assert job["tasks"] == []
        assert job["start"] is None and job["finish"] is None
        _, sub = submit(app)
        _, info = get(app, "/jobs?session=s")
        rows = [json.loads(r) for r in info["journal"].strip().split("\n")]
        assert rows[1] == {"job": "job-0000", "release": 0.0, "tasks": []}
        assert info["summary"]["makespan"] == sub["makespan"] > 0.0

    def test_future_release_stays_pending_until_flush(self):
        app = ServiceApp()
        _, out = submit(app, session="lazy", policy="batched:50",
                        release=1.0)
        assert out["state"] == "queued"
        assert out["n_pending"] == 1
        _, out2 = submit(app, session="lazy", release=2.0, flush=True)
        assert out2["n_pending"] == 0
        _, job = get(app, "/jobs/job-0000?session=lazy")
        assert job["state"] == "scheduled"


class TestErrors:
    def test_unknown_session_404(self):
        app = ServiceApp()
        status, out = get(app, "/jobs?session=ghost")
        assert (status, out["error"]["type"]) == (404, "unknown_session")

    def test_unknown_job_404(self):
        app = ServiceApp()
        submit(app)
        status, out = get(app, "/jobs/nope?session=s")
        assert (status, out["error"]["type"]) == (404, "unknown_job")

    def test_first_request_requires_platform(self):
        app = ServiceApp()
        status, out = submit(app, platform=None)
        assert (status, out["error"]["type"]) == (400, "bad_request")
        assert "platform" in out["error"]["message"]

    def test_config_conflict_409(self):
        app = ServiceApp()
        submit(app, algorithm="memheft")
        status, out = submit(app, algorithm="memminmin")
        assert (status, out["error"]["type"]) == (409, "session_mismatch")
        status, out = submit(app, platform=Platform(n_blue=2, n_red=2))
        assert (status, out["error"]["type"]) == (409, "session_mismatch")

    def test_consistent_restatement_accepted(self):
        app = ServiceApp()
        submit(app, algorithm="memheft")
        status, _ = submit(app, algorithm="memheft")
        assert status == 200

    def test_bad_graph_400(self):
        app = ServiceApp()
        payload = {"session": "s", "platform": platform_to_dict(PLATFORM),
                   "graph": {"tasks": "nope"}}
        status, _, body = app.handle("POST", "/jobs",
                                     json.dumps(payload).encode())
        assert status == 400
        assert json.loads(body)["error"]["type"] == "bad_graph"

    @pytest.mark.parametrize("platform", [
        {"n_blue": 1, "n_red": 1, "capacities": [10, 10]},
        {"proc_counts": [1, 1], "mem_blue": 10, "mem_red": 10},
        {"n_blue": 1, "n_red": 1, "capacity": 10},
    ], ids=["dual-with-capacities", "kary-with-mem_blue", "typo-capacity"])
    def test_platform_key_outside_its_form_400(self, platform):
        app = ServiceApp()
        payload = {"session": "s", "release_time": 0.0, "platform": platform,
                   "graph": graph_to_dict(random_dag(size=8, rng=1))}
        status, _, body = app.handle("POST", "/jobs",
                                     json.dumps(payload).encode())
        assert status == 400
        assert json.loads(body)["error"]["type"] == "bad_platform"

    def test_bad_release_400(self):
        app = ServiceApp()
        status, out = submit(app, release=True)
        assert (status, out["error"]["type"]) == (400, "bad_request")
        status, out = submit(app, release=-2.0)
        assert (status, out["error"]["type"]) == (400, "bad_request")

    def test_duplicate_job_id_400(self):
        app = ServiceApp()
        submit(app, job_id="j")
        status, out = submit(app, job_id="j")
        assert (status, out["error"]["type"]) == (400, "bad_request")

    def test_infeasible_422(self):
        tight = Platform(n_blue=1, n_red=1, mem_blue=0.001, mem_red=0.001)
        app = ServiceApp()
        status, out = submit(app, platform=tight)
        assert (status, out["error"]["type"]) == (422, "infeasible")

    def test_cyclic_graph_400_registers_nothing(self):
        app = ServiceApp()
        cyclic = {"name": "cyclic", "n_classes": 2,
                  "tasks": [{"id": t, "w_blue": 1.0, "w_red": 1.0}
                            for t in "ab"],
                  "edges": [{"src": "a", "dst": "b"},
                            {"src": "b", "dst": "a"}]}
        payload = {"session": "s", "platform": platform_to_dict(PLATFORM),
                   "job_id": "j", "graph": cyclic}
        status, _, body = app.handle("POST", "/jobs",
                                     json.dumps(payload).encode())
        assert (status, json.loads(body)["error"]["type"]) \
            == (400, "bad_request")
        status, out = get(app, "/jobs/j?session=s")
        assert (status, out["error"]["type"]) == (404, "unknown_job")
        status, out = submit(app, job_id="j")
        assert (status, out["arrival_index"]) == (200, 0)

    def test_bad_comm_policy_400_opens_no_session(self):
        app = ServiceApp()
        status, out = submit(app, options={"comm_policy": "bogus"})
        assert (status, out["error"]["type"]) == (400, "bad_request")
        assert "comm_policy" in out["error"]["message"]
        status, out = get(app, "/jobs?session=s")
        assert (status, out["error"]["type"]) == (404, "unknown_session")

    def test_classic_algorithm_rejected(self):
        app = ServiceApp()
        status, out = submit(app, session="x", algorithm="heft")
        assert (status, out["error"]["type"]) == (400, "bad_request")

    @pytest.mark.parametrize("options", [
        {"comm_polcy": "eager"}, {"lazy": "yes"}, ["eager"],
    ], ids=["misspelt-key", "non-bool-lazy", "not-an-object"])
    def test_bad_options_400_as_schedule(self, options):
        """/jobs checks its options as /schedule does, when it opens a
        session and when a request restates them."""
        app = ServiceApp()
        request = {"graph": graph_to_dict(dex()),
                   "platform": platform_to_dict(PLATFORM),
                   "options": options}
        status, _, _ = app.handle("POST", "/schedule",
                                  json.dumps(request).encode())
        assert status == 400
        status, out = submit(app, options=options)
        assert (status, out["error"]["type"]) == (400, "bad_request")
        status, out = get(app, "/jobs?session=s")
        assert (status, out["error"]["type"]) == (404, "unknown_session")
        assert submit(app)[0] == 200
        status, out = submit(app, options=options)
        assert (status, out["error"]["type"]) == (400, "bad_request")
        _, info = get(app, "/jobs?session=s")
        assert info["summary"]["n_jobs"] == 1

    def test_restated_options_may_leave_keys_out(self):
        app = ServiceApp()
        assert submit(app, options={"comm_policy": "eager"})[0] == 200
        for options in ({}, {"lazy": False}, None):
            status, _ = submit(app, options=options)
            assert status == 200
        status, out = submit(app, options={"comm_policy": "late"})
        assert (status, out["error"]["type"]) == (409, "session_mismatch")

    def test_algorithm_names_are_case_insensitive(self):
        """As at /schedule: the session runs, and its journal header
        records, the lower-case name; a restatement differing only in
        case is no conflict."""
        app = ServiceApp()
        status, _ = submit(app, algorithm="MemHEFT",
                           options={"comm_policy": "eager"})
        assert status == 200
        assert submit(app, algorithm="MEMHEFT")[0] == 200
        status, out = submit(app, algorithm="MemMinMin")
        assert (status, out["error"]["type"]) == (409, "session_mismatch")
        _, info = get(app, "/jobs?session=s")
        header = json.loads(info["journal"].splitlines()[0])
        assert header["algorithm"] == info["summary"]["algorithm"] \
            == "memheft"
        assert header["comm_policy"] == "eager"


class TestConcurrency:
    def test_concurrent_submits_serialize_per_session(self):
        """16 threads racing into one session: every submit lands, ids
        are unique, and the final union schedule is complete."""
        app = ServiceApp()
        graphs = [random_dag(size=6, width=0.5, density=0.5, jumps=2,
                             rng=k) for k in range(16)]
        results, errors = [], []

        def worker(k):
            try:
                status, out = submit(app, graph=graphs[k], session="race",
                                     release=0.0)
                results.append((status, out["job_id"]))
            except Exception as exc:   # noqa: BLE001 — fail the test below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(status == 200 for status, _ in results)
        ids = [job_id for _, job_id in results]
        assert len(set(ids)) == 16
        _, info = get(app, "/jobs?session=race")
        assert info["summary"]["n_planned"] == 16
        assert info["summary"]["n_pending"] == 0

    def test_sessions_are_isolated(self):
        app = ServiceApp()
        submit(app, session="a", algorithm="memheft")
        submit(app, session="b", algorithm="memminmin")
        _, a = get(app, "/jobs?session=a")
        _, b = get(app, "/jobs?session=b")
        assert a["summary"]["algorithm"] == "memheft"
        assert b["summary"]["algorithm"] == "memminmin"
        assert a["summary"]["n_jobs"] == b["summary"]["n_jobs"] == 1
