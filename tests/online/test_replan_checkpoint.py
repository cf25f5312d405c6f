"""Checkpointed planning rounds against the O(history) rebuild.

``OnlineSession`` starts every round from a checkpoint of the
never-revocable log prefix and only builds, adopts and replays the open
jobs.  :class:`RebuildSession` is the straightforward implementation it
replaces: every round builds a fresh state over the union of *all*
placed jobs plus the group, replays the whole kept log, then drives
(with ``W = 0`` that is an atomic carry-forward round).  Both must
produce byte-identical journals, poll results and revocation counts —
including on streams whose rounds fail for lack of memory.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Platform
from repro.core.graph import TaskGraph
from repro.dags import random_dag
from repro.io.json_io import graph_from_dict
from repro.online import OnlineSession, build_union_graph, poisson_trace
from repro.online import session as session_mod
from repro.scheduling.ranks import rank_order
from repro.scheduling.state import InfeasibleScheduleError, SchedulerState

pytest.importorskip("numpy")

ALGOS = ("memheft", "memminmin", "memsufferage")
POLICIES = ("immediate", "batched:1.5", "batched:5",
            "replan:1", "replan:2", "replan:5", "replan:16", "replan:40")
#: Tight (rounds fail), medium and roomy capacities for both classes.
BOUNDS = (30.0, 150.0, 20000.0)


class RebuildSession(OnlineSession):
    """Reference: every round rebuilds from the whole kept log."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.full_log = []

    def _replan_round(self, group, floor, window):
        log = self.full_log
        cut = max(len(log) - window, 0)
        tail = log[cut:]
        kept = log[:cut] + [d for d in tail
                            if d.est <= floor + session_mod._TIME_EPS]
        in_round = [j for j in self.jobs.values()
                    if j.placements is not None or j in group]
        union = build_union_graph(in_round, self.platform.n_classes)
        state = SchedulerState(union, self.platform,
                               comm_policy=self.comm_policy)
        memories = self.platform.memories()
        for decision in kept:
            state.commit(decision.breakdown(memories))
            state.pop_newly_ready()
        positions = {t: k for k, t in enumerate(
            rank_order(union, rng=None, platform=self.platform))}
        records, _ = self._drive(state, positions, floor)
        self.full_log = kept + records
        self._publish_placements(state, in_round, n_adopted=0)
        return {"replanned": len(log) - len(kept)}


class CountingSession(OnlineSession):
    """The shipped session, counting kept-tail replays (so the identity
    below cannot pass vacuously)."""

    counts = Counter()

    def _replan_round(self, group, floor, window):
        self.counts["kept_tail"] += sum(
            d.est <= floor + session_mod._TIME_EPS for d in self._tail)
        return super()._replan_round(group, floor, window)


@pytest.fixture
def adopt_calls(monkeypatch):
    calls = Counter()
    original = SchedulerState.adopt

    def counting(self, placement):
        calls["adopt"] += 1
        return original(self, placement)

    monkeypatch.setattr(SchedulerState, "adopt", counting)
    return calls


def _scaled(graph: TaskGraph, scale: float) -> TaskGraph:
    """``graph`` with every time and size multiplied by ``scale``."""
    out = TaskGraph(name=graph.name, n_classes=graph.n_classes)
    for t in graph.tasks():
        out.add_task(t, times=tuple(w * scale for w in graph.times(t)))
    for u, v in graph.edges():
        out.add_dependency(u, v, size=graph.size(u, v) * scale,
                           comm=graph.comm(u, v) * scale)
    return out


def _shuffled(graph: TaskGraph, rng: random.Random) -> TaskGraph:
    """``graph`` with its task ids permuted and its tasks and edges
    inserted in shuffled order (as perfbench's ``relabel`` does): each
    task's predecessor order then differs from the union's u-major
    edge order."""
    tasks = list(graph.tasks())
    new_id = dict(zip(tasks, rng.sample(range(len(tasks)), len(tasks))))
    edges = list(graph.edges())
    rng.shuffle(tasks)
    rng.shuffle(edges)
    out = TaskGraph(name=graph.name, n_classes=graph.n_classes)
    for t in tasks:
        out.add_task(new_id[t], times=graph.times(t))
    for u, v in edges:
        out.add_dependency(new_id[u], new_id[v], size=graph.size(u, v),
                           comm=graph.comm(u, v))
    return out


def _stream(n_jobs, seed, gap, scale, shuffle=False):
    """``[(release, [(job_id, graph), ...]), ...]``: jobs of 2-9 tasks,
    releases on a 0.5 grid so several jobs can share a round."""
    groups: dict = {}
    release = 0.0
    rng = random.Random(seed)
    for k in range(n_jobs):
        release += gap * ((seed >> k) % 3)
        graph = _scaled(random_dag(size=2 + (seed + k) % 8, width=0.4,
                                   density=0.5, jumps=3, rng=seed + k),
                        scale)
        if shuffle:
            graph = _shuffled(graph, rng)
        groups.setdefault(release, []).append((f"j{k:02d}", graph))
    return sorted(groups.items())


def _poll(session, now):
    """Poll until a poll succeeds; failing rounds are recorded."""
    out = []
    while True:
        try:
            out.append(session.poll(now))
            return out
        except InfeasibleScheduleError:
            out.append("infeasible")


def _run(cls, stream, platform, algo, policy):
    session = cls(platform, algorithm=algo, policy=policy)
    polls = []
    for release, jobs in stream:
        for job_id, graph in jobs:
            session.submit(graph, release=release, job_id=job_id)
        polls.append(_poll(session, release))
    polls.append(_poll(session, None))
    return session, polls


def _assert_identical(stream, platform, algo, policy):
    ref, ref_polls = _run(RebuildSession, stream, platform, algo, policy)
    got, got_polls = _run(CountingSession, stream, platform, algo, policy)
    assert got.journal() == ref.journal()
    assert got_polls == ref_polls
    assert ([r["replanned"] for r in got.rounds]
            == [r["replanned"] for r in ref.rounds])
    assert got.makespan == ref.makespan
    # The checkpoint plus tail is exactly the kept log.
    assert got._base.length + len(got._tail) == len(ref.full_log)
    assert got._tail == ref.full_log[got._base.length:]
    return ref_polls


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=16),        # jobs
       st.integers(min_value=0, max_value=2**20),     # seed
       st.sampled_from((0.5, 1.5, 4.0)),              # gap scale
       st.sampled_from((1.0, 0.3, 1 / 3)),            # time/size scale
       st.booleans(),                                 # shuffled insertion
       st.booleans(),                                 # heterogeneous speeds
       st.sampled_from(ALGOS),
       st.sampled_from(POLICIES),
       st.sampled_from(BOUNDS),
       st.integers(min_value=1, max_value=2))         # processors/class
def test_checkpoint_rounds_match_rebuild(n_jobs, seed, gap, scale, shuffle,
                                         hetero, algo, policy, bound, procs):
    speeds = [1.0, 0.75, 2.0, 1.25][:2 * procs] if hetero else None
    platform = Platform(n_blue=procs, n_red=procs, mem_blue=bound,
                        mem_red=bound, speeds=speeds)
    _assert_identical(_stream(n_jobs, seed, gap, scale, shuffle), platform,
                      algo, policy)


def test_grid_exercises_adopt_replay_and_failures(adopt_calls):
    """A fixed grid over every heuristic, window and bound: identical
    to the rebuild, and the adopt path, the kept-tail replay and failing
    rounds each occur."""
    CountingSession.counts.clear()
    failures = 0
    for k, (algo, policy, bound) in enumerate(
            (a, p, b) for a in ALGOS for p in POLICIES for b in BOUNDS):
        platform = Platform(n_blue=1 + k % 2, n_red=1 + k % 2,
                            mem_blue=bound, mem_red=bound)
        stream = _stream(10, 7919 * k, 0.5 + k % 3, 1.0)
        polls = _assert_identical(stream, platform, algo, policy)
        failures += sum(p == "infeasible" for ps in polls for p in ps)
    assert adopt_calls["adopt"] > 0
    assert CountingSession.counts["kept_tail"] > 0
    assert failures > 0


class TestAtomicRounds:
    """A round that raises leaves the session as it found it."""

    PLATFORM = Platform(n_blue=1, n_red=1, mem_blue=10, mem_red=10)

    @staticmethod
    def chain():
        """``a -> b -> c`` with edge sizes 4 and 12: ``b`` needs 16
        units on a 10-unit platform, after ``a`` is already placed."""
        g = TaskGraph("chain")
        for t in "abc":
            g.add_task(t, w_blue=1.0, w_red=1.0)
        g.add_dependency("a", "b", size=4.0, comm=1.0)
        g.add_dependency("b", "c", size=12.0, comm=1.0)
        return g

    @staticmethod
    def small(k):
        """A two-task job that fits the platform."""
        g = TaskGraph(f"small{k}")
        g.add_task("x", w_blue=1.0 + k, w_red=2.0)
        g.add_task("y", w_blue=2.0, w_red=1.0 + k)
        g.add_dependency("x", "y", size=1.0 + k % 3, comm=1.0)
        return g

    def _session(self, policy, with_failure):
        session = OnlineSession(self.PLATFORM, policy=policy)
        session.submit(self.small(1), release=0.0, job_id="first")
        session.poll(0.0)
        if with_failure:
            session.submit(self.chain(), release=1.5, job_id="bad")
            with pytest.raises(InfeasibleScheduleError):
                session.poll(1.5)
        return session

    @staticmethod
    def _state(session):
        return ({m.index: list(p.segments())
                 for m, p in session._base.profiles.items()},
                list(session._base.avail), session._base.length,
                list(session._tail))

    @pytest.mark.parametrize("policy",
                             ["immediate", "batched:1.5", "replan:3"])
    def test_failed_round_leaves_no_trace(self, policy):
        failed = self._session(policy, with_failure=True)
        clean = self._session(policy, with_failure=False)
        assert failed.jobs["bad"].placements is None
        assert self._state(failed) == self._state(clean)
        for session in (failed, clean):
            for k in range(3):
                session.submit(self.small(10 + k), release=2.0 + k,
                               job_id=f"later{k}")
            session.flush()
        assert self._state(failed) == self._state(clean)
        assert failed.journal() == clean.journal()

    def test_failed_first_round_leaves_empty_profiles(self):
        session = OnlineSession(self.PLATFORM)
        session.submit(self.chain(), release=0.0, job_id="bad")
        with pytest.raises(InfeasibleScheduleError):
            session.poll(0.0)
        for profile in session._base.profiles.values():
            assert list(profile.segments()) == [(0.0, float("inf"), 0.0)]


def test_round_work_is_flat_in_session_length(monkeypatch):
    """``replan:16`` builds and replays O(window) work per round: the
    mean union size plus replayed commits per round over a 2,000-arrival
    stream stays within 1.25x of the mean over its first 200 arrivals."""
    unions = []
    original = session_mod._union_flat

    def counting(blocks, n_classes):
        union = original(blocks, n_classes)
        unions.append(union.n_tasks)
        return union

    monkeypatch.setattr(session_mod, "_union_flat", counting)
    platform = Platform(n_blue=2, n_red=2, mem_blue=20000, mem_red=20000)
    trace = poisson_trace(2000, seed=5, rate=2.0, tick=2.5, size=4)

    def mean_work(rows):
        unions.clear()
        CountingSession.counts.clear()
        session = CountingSession(platform, policy="replan:16")
        for k, row in enumerate(rows):
            session.submit(graph_from_dict(row["graph"]),
                           release=row["release"], job_id=row["job"])
            if k + 1 == len(rows) or rows[k + 1]["release"] > row["release"]:
                session.poll(row["release"])
        assert session.n_pending == 0
        assert [r["union_tasks"] for r in session.rounds] == unions
        assert (sum(r["replayed"] for r in session.rounds)
                == CountingSession.counts["kept_tail"])
        work = sum(unions) + CountingSession.counts["kept_tail"]
        return work / len(session.rounds)

    short, long = mean_work(trace[:200]), mean_work(trace)
    assert long <= 1.25 * short, (short, long)
