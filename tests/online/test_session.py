"""OnlineSession lifecycle and edge cases: grouping, ordering, errors,
journals, replanning."""

import pytest

from repro import Platform, validate_schedule
from repro.core.graph import TaskGraph
from repro.dags import random_dag
from repro.dags.toy import dex
from repro.online import (
    JOURNAL_VERSION,
    OnlineSession,
    build_union_graph,
    clairvoyant_makespan,
)

pytest.importorskip("numpy")

PLATFORM = Platform(n_blue=1, n_red=1)


def graphs(n, size=8, seed0=0):
    return [random_dag(size=size, width=0.4, density=0.5, jumps=3,
                       rng=seed0 + k) for k in range(n)]


class TestSubmit:
    def test_submit_only_enqueues(self):
        session = OnlineSession(PLATFORM)
        job_id = session.submit(dex(), release=1.0)
        assert session.jobs[job_id].state == "queued"
        assert session.n_pending == 1
        assert session.makespan == 0.0

    def test_auto_ids_follow_arrival_order(self):
        session = OnlineSession(PLATFORM)
        assert session.submit(dex()) == "job-0000"
        assert session.submit(dex()) == "job-0001"

    def test_duplicate_id_rejected(self):
        session = OnlineSession(PLATFORM)
        session.submit(dex(), job_id="j1")
        with pytest.raises(ValueError, match="duplicate"):
            session.submit(dex(), job_id="j1")

    def test_slash_in_id_rejected(self):
        session = OnlineSession(PLATFORM)
        with pytest.raises(ValueError, match="'/'"):
            session.submit(dex(), job_id="a/b")

    @pytest.mark.parametrize("job_id", [5, ["x"], b"j"])
    def test_non_string_id_rejected(self, job_id):
        session = OnlineSession(PLATFORM)
        with pytest.raises(TypeError, match="must be a string"):
            session.submit(dex(), job_id=job_id)
        assert session.jobs == {}

    def test_rejected_submission_takes_no_arrival_index(self):
        session = OnlineSession(PLATFORM)
        assert session.jobs[session.submit(dex(), job_id="j1")].arrival_index == 0
        for bad_id in ("j1", "a/b", 5):
            with pytest.raises((TypeError, ValueError)):
                session.submit(dex(), job_id=bad_id)
        with pytest.raises(ValueError, match="release"):
            session.submit(dex(), release=-1.0)
        assert session.jobs[session.submit(dex(), job_id="j2")].arrival_index == 1
        # Default ids follow the arrival index, with no gap either.
        assert session.submit(dex()) == "job-0002"

    @pytest.mark.parametrize("release", [-1.0, float("inf"), float("nan"),
                                         10 ** 400])
    def test_bad_release_rejected(self, release):
        session = OnlineSession(PLATFORM)
        with pytest.raises(ValueError, match="release time must be finite"):
            session.submit(dex(), release=release)

    def test_wrong_memory_class_count_rejected(self):
        three = Platform([1, 1, 1])
        session = OnlineSession(three)
        with pytest.raises(ValueError, match="memory classes"):
            session.submit(dex())   # dex has 2 classes

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="heft"):
            OnlineSession(PLATFORM, algorithm="heft")

    def test_unknown_comm_policy_rejected(self):
        with pytest.raises(ValueError, match="comm_policy"):
            OnlineSession(PLATFORM, comm_policy="bogus")

    def test_cyclic_graph_rejected_before_registering(self):
        """A cyclic job is refused at submit: nothing is registered, so
        its id can be reused and the next job is arrival 0."""
        cyclic = TaskGraph("cyclic")
        for t in "ab":
            cyclic.add_task(t, w_blue=1.0, w_red=1.0)
        cyclic.add_dependency("a", "b")
        cyclic.add_dependency("b", "a")
        session = OnlineSession(PLATFORM)
        with pytest.raises(ValueError, match="cycle"):
            session.submit(cyclic, job_id="j")
        assert session.jobs == {}
        assert session.n_pending == 0
        assert session.submit(dex(), job_id="j") == "j"
        assert session.jobs["j"].arrival_index == 0
        assert session.flush() == ["j"]
        assert session.jobs["j"].state == "scheduled"

    def test_ids_equal_as_strings_rejected_before_registering(self):
        """Tasks ``1`` and ``"1"`` would share the namespaced id
        ``"j/1"``: the job is refused at submit, not left queued."""
        clash = TaskGraph("clash")
        for t in (1, "1"):
            clash.add_task(t, w_blue=1.0, w_red=1.0)
        session = OnlineSession(PLATFORM)
        with pytest.raises(ValueError, match="distinct as strings"):
            session.submit(clash, job_id="j")
        assert session.jobs == {}
        assert session.submit(dex(), job_id="j") == "j"
        assert session.jobs["j"].arrival_index == 0


class TestPoll:
    def test_simultaneous_releases_one_round(self):
        session = OnlineSession(PLATFORM)
        for g in graphs(3):
            session.submit(g, release=4.0)
        assert session.poll(3.9) == []
        planned = session.poll(4.0)
        assert planned == ["job-0000", "job-0001", "job-0002"]
        assert len(session.rounds) == 1
        assert session.rounds[0]["n_jobs"] == 3

    def test_distinct_releases_distinct_rounds(self):
        session = OnlineSession(PLATFORM)
        g1, g2 = graphs(2)
        session.submit(g1, release=1.0)
        session.submit(g2, release=2.0)
        assert session.poll(5.0) == ["job-0000", "job-0001"]
        assert len(session.rounds) == 2

    def test_no_task_starts_before_its_round_floor(self):
        session = OnlineSession(PLATFORM)
        for k, g in enumerate(graphs(3)):
            session.submit(g, release=float(k) * 3.0)
        session.flush()
        for job in session.jobs.values():
            assert job.start >= job.due

    def test_empty_session_is_quiet(self):
        session = OnlineSession(PLATFORM)
        assert session.poll(10.0) == []
        assert session.flush() == []
        assert session.makespan == 0.0
        assert session.rounds == []
        # journal is just the header
        lines = session.journal().strip().split("\n")
        assert len(lines) == 1

    def test_flush_drains_batched_residue(self):
        session = OnlineSession(PLATFORM, policy="batched:10")
        session.submit(dex(), release=1.0)
        assert session.poll(1.0) == []   # due at 10, not yet
        assert session.flush() == ["job-0000"]
        assert session.jobs["job-0000"].state == "scheduled"

    def test_clock_never_regresses(self):
        session = OnlineSession(PLATFORM)
        g1, g2 = graphs(2)
        session.submit(g1, release=5.0)
        session.poll(5.0)
        session.submit(g2, release=0.0)   # late submit of an early release
        session.poll(None)
        assert session.clock == 5.0
        # the late job is still floored at the round it ran in
        assert session.jobs["job-0001"].start >= 0.0


class TestJournal:
    def test_header_carries_config(self):
        import json
        session = OnlineSession(PLATFORM, algorithm="memminmin",
                                policy="batched:2")
        header = json.loads(session.journal().split("\n", 1)[0])
        assert header["v"] == JOURNAL_VERSION
        assert header["kind"] == "online-journal"
        assert header["algorithm"] == "memminmin"
        assert header["policy"] == "batched:2"

    def test_identical_streams_identical_journals(self):
        def run():
            session = OnlineSession(PLATFORM)
            for k, g in enumerate(graphs(4)):
                session.submit(g, release=float(k))
            session.flush()
            return session.journal()
        assert run() == run()

    def test_pending_jobs_not_in_journal(self):
        session = OnlineSession(PLATFORM, policy="batched:100")
        session.submit(dex(), release=1.0)
        lines = session.journal().strip().split("\n")
        assert len(lines) == 1   # header only


class TestReplan:
    def test_replan_revokes_and_still_valid(self):
        """A replanning session must report revocations and end with a
        valid union schedule (all placements consistent)."""
        gs = graphs(5, size=10)
        releases = [0.0, 0.0, 1.0, 2.0, 3.0]

        def run(policy):
            session = OnlineSession(PLATFORM, policy=policy)
            for g, r in zip(gs, releases):
                session.submit(g, release=r)
                session.poll(r)
            session.flush()
            return session

        replan = run("replan:16")
        assert sum(r["replanned"] for r in replan.rounds) > 0
        # every job planned exactly once, all starts respect due floors
        for job in replan.jobs.values():
            assert job.state == "scheduled"
            assert job.start >= job.due - 1e-9

    def test_replan_on_empty_log_is_carry_forward(self):
        session = OnlineSession(PLATFORM, policy="replan:4")
        session.submit(dex(), release=0.0)
        session.poll(0.0)
        assert session.rounds[0]["replanned"] == 0


class TestEmptyJob:
    """A job without tasks is planned by its round like any other: it
    ends ``scheduled`` with no placements and no start or finish."""

    @pytest.mark.parametrize("policy", ["immediate", "replan:3"])
    def test_empty_job_ends_scheduled(self, policy):
        session = OnlineSession(PLATFORM, policy=policy)
        session.submit(TaskGraph("empty"), job_id="e0")
        session.submit(dex(), release=1.0, job_id="d0")
        session.submit(TaskGraph("empty"), release=2.0, job_id="e1")
        session.submit(dex(), release=2.0, job_id="d1")
        assert session.flush() == ["e0", "d0", "e1", "d1"]
        assert [j.state for j in session.jobs.values()] == ["scheduled"] * 4
        for job_id in ("e0", "e1"):
            job = session.jobs[job_id]
            assert job.placements == {}
            assert job.start is None and job.finish is None
            view = job.to_dict()
            assert view["state"] == "scheduled"
            assert view["tasks"] == []
            assert view["start"] is None and view["finish"] is None
        assert session.makespan == max(session.jobs[j].finish
                                       for j in ("d0", "d1"))
        assert session.summary()["n_planned"] == 4

    def test_empty_job_journal_row(self):
        session = OnlineSession(PLATFORM)
        session.submit(TaskGraph("empty"), job_id="e0")
        session.flush()
        lines = session.journal().strip().split("\n")
        assert lines[1:] == ['{"job":"e0","release":0.0,"tasks":[]}']
        assert session.makespan == 0.0

    def test_empty_job_leaves_the_others_alone(self):
        """Interleaving empty jobs moves no placement of the others."""
        def run(with_empty):
            session = OnlineSession(PLATFORM, policy="replan:3")
            for k, g in enumerate(graphs(3)):
                if with_empty:
                    session.submit(TaskGraph("empty"), release=float(k),
                                   job_id=f"e{k}")
                session.submit(g, release=float(k), job_id=f"g{k}")
            session.flush()
            return {j: job.placements for j, job in session.jobs.items()
                    if j.startswith("g")}

        assert run(True) == run(False)


class TestOfflineIdentity:
    def test_zero_release_matches_offline_schedule(self):
        """All releases zero -> one round, bit-identical to the offline
        heuristic on the union DAG (the anchor of the online design)."""
        from repro import get_scheduler

        gs = graphs(3)
        session = OnlineSession(PLATFORM)
        for g in gs:
            session.submit(g, release=0.0)
        session.poll(0.0)
        assert len(session.rounds) == 1

        union = build_union_graph(
            sorted(session.jobs.values(), key=lambda j: j.arrival_index),
            PLATFORM.n_classes)
        offline = get_scheduler("memheft")(union, PLATFORM)
        validate_schedule(union, PLATFORM, offline)
        assert session.makespan == offline.makespan
        for job in session.jobs.values():
            for task, placement in job.placements.items():
                ref = offline.placement(f"{job.job_id}/{task}")
                assert (placement.proc, placement.start,
                        placement.finish) == (ref.proc, ref.start,
                                              ref.finish)

    def test_clairvoyant_is_release_free(self):
        gs = graphs(3)
        session = OnlineSession(PLATFORM)
        for k, g in enumerate(gs):
            session.submit(g, release=float(k) * 10.0)
        session.flush()
        jobs = sorted(session.jobs.values(), key=lambda j: j.arrival_index)
        baseline = clairvoyant_makespan(jobs, PLATFORM)
        # staggered releases can only hurt the online schedule
        assert session.makespan >= baseline - 1e-9
