"""The kernel's breakdown memo must be invisible in the schedules
(bit-identical to the naive rescan) while keeping full kernel
re-evaluations to the profile mutations that demand them, and the
commit-side cache eviction must keep the EST memos bounded to the live
candidate set."""

import math
import sys

import pytest

from repro import Platform
from repro.dags import cholesky_dag, lu_dag, random_dag
from repro.experiments.figures import MIRAGE_PLATFORM
from repro.scheduling import driver
from repro.scheduling.candidates import MinEFTSelector, ScanSelector, min_eft
from repro.scheduling.driver import drive
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import InfeasibleScheduleError, SchedulerState
from repro.scheduling.sufferage import memsufferage

from .scan_reference import reference

#: Each lazy selector and the scan rule it must reproduce.
PAIRS = [pytest.param(MinEFTSelector, min_eft, id="MinEFTSelector")]


def _drive(graph, platform, make_selector):
    """Run :func:`~repro.scheduling.driver.drive` to completion (or
    infeasibility); return the placements committed so far and the
    selector."""
    state = SchedulerState(graph, platform)
    index = {t: k for k, t in enumerate(graph.topological_order())}
    selector = make_selector(state, index)
    for task in graph.roots():
        selector.push(task)
    try:
        drive(state, selector, graph.n_tasks, str)
    except InfeasibleScheduleError:
        pass
    snap = {t: (p.proc, p.memory.index, p.start, p.finish)
            for t in graph.tasks() if t in state.schedule
            for p in (state.schedule.placement(t),)}
    return snap, selector


def _scan(rule):
    return lambda state, index: ScanSelector(state, index, rule)


class TestScopedEqualsScan:
    @pytest.mark.parametrize("selector_cls, rule", PAIRS)
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_schedules_across_bounds(self, selector_cls, rule,
                                               seed):
        graph = random_dag(size=60, width=0.6, rng=seed)
        for platform in (Platform(2, 2),
                         Platform(2, 2, 300.0, 300.0),
                         Platform(2, 2, 90.0, 90.0),
                         Platform(1, 2, 60.0, 60.0)):
            scoped, _ = _drive(graph, platform, selector_cls)
            scan, _ = _drive(graph, platform, _scan(rule))
            assert scoped == scan

    @pytest.mark.parametrize("selector_cls, rule", PAIRS)
    def test_identical_on_heterogeneous_platform(self, selector_cls, rule):
        graph = random_dag(size=40, rng=4)
        platform = Platform(2, 2, 200.0, 200.0,
                            speeds=[1.0, 2.0, 0.5, 1.0])
        scoped, _ = _drive(graph, platform, selector_cls)
        scan, _ = _drive(graph, platform, _scan(rule))
        assert scoped == scan

    @pytest.mark.parametrize("fn", (memminmin, memsufferage),
                             ids=lambda f: f.__name__)
    def test_driver_kwarg_matches_naive(self, fn):
        graph = random_dag(size=30, rng=6)
        platform = Platform(2, 1, 150.0, 150.0)
        lazy = fn(graph, platform)
        naive = reference(fn)(graph, platform)
        for t in graph.tasks():
            a, b = (s.placement(t) for s in (lazy, naive))
            assert (a.proc, a.memory, a.start, a.finish) \
                == (b.proc, b.memory, b.start, b.finish)


def _run_state(fn, graph, platform, monkeypatch):
    """Run heuristic ``fn`` unchanged; return the state it scheduled on."""
    states = []

    def spy(state, *args):
        states.append(state)
        return driver.run(state, *args)

    monkeypatch.setattr(sys.modules[fn.__module__], "run", spy)
    fn(graph, platform)
    return states[0]


GRAPHS = {
    "rand150": lambda: random_dag(size=150, width=0.8, rng=1),
    "rand80": lambda: random_dag(size=80, width=0.8, rng=2),
    "lu6": lambda: lu_dag(6),
    "cholesky6": lambda: cholesky_dag(6),
}


class TestReEvaluationReduction:
    @pytest.mark.parametrize("fn", (memheft, memminmin, memsufferage),
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("graph_id", GRAPHS)
    @pytest.mark.parametrize("platform", [Platform(2, 2), MIRAGE_PLATFORM],
                             ids=["2+2", "mirage"])
    def test_unbounded_full_evals_is_one_per_task_class(
            self, fn, graph_id, platform, monkeypatch):
        """With untouched (unbounded) profiles, commits only move
        processor avail: each (candidate, class) pair takes exactly one
        full kernel evaluation, and everything after is an O(1) refresh
        or a reuse.  MemHEFT commits the first ready task it evaluates on
        an unbounded platform, so it never re-evaluates one."""
        graph = GRAPHS[graph_id]()
        state = _run_state(fn, graph, platform, monkeypatch)
        assert state.n_full_evals == graph.n_tasks * platform.n_classes
        if fn is memheft:
            assert state.n_refreshes == 0
        else:
            assert state.n_refreshes > 0

    @pytest.mark.parametrize("fn, makespan, counts", [
        (memminmin, 29219.0,
         {"n_full_evals": 4214, "n_refreshes": 21123, "n_reused": 84729}),
        (memsufferage, 31457.0,
         {"n_full_evals": 4214, "n_refreshes": 24299, "n_reused": 193953}),
    ], ids=["memminmin", "memsufferage"])
    def test_lu13_mirage_memo_counts(self, fn, makespan, counts,
                                     monkeypatch):
        """Unbounded LU 13 on the Mirage platform, the memo's recorded
        outcomes: one full evaluation per (task, class), and refreshes
        only where a class's ``min(avail)`` moved (an unbounded class's
        memory part stays valid across profile moves; keying reuse on
        the profile version as well refreshed 97,870 and 143,473
        times)."""
        state = _run_state(fn, lu_dag(13), MIRAGE_PLATFORM, monkeypatch)
        assert state.schedule.makespan == makespan
        assert state.eval_counts() == counts

    def test_stats_dict_roundtrip(self, monkeypatch):
        graph = random_dag(size=20, rng=0)
        state = _run_state(memminmin, graph, Platform(1, 1), monkeypatch)
        d = state.eval_counts()
        assert d == {"n_full_evals": state.n_full_evals,
                     "n_refreshes": state.n_refreshes,
                     "n_reused": state.n_reused}
        assert all(v >= 0 for v in d.values())


class TestCommitEviction:
    """Commit must evict the committed task's memo entries, so the
    _static/_est_memo caches stay bounded to ready-but-uncommitted
    tasks."""

    def test_fit_and_static_evicted_on_commit(self):
        graph = random_dag(size=25, rng=3)
        platform = Platform(1, 1, 200.0, 200.0)
        state = SchedulerState(graph, platform)
        committed = []
        ready = list(state.ready_roots())
        while ready:
            task = ready[0]
            bd = state.best_est(task)
            if bd is None:
                break
            state.commit(bd)
            committed.append(task)
            for t in committed:
                assert t not in state._static
                assert all(t not in memo for memo in state._est_memo)
            ready = ready[1:] + state.pop_newly_ready()
        # Everything committed -> both memos fully drained.
        assert state.done
        assert not state._static
        assert not any(state._est_memo)

    def test_memo_never_exceeds_live_candidate_count(self):
        graph = random_dag(size=40, width=0.7, rng=8)
        platform = Platform(2, 2, 300.0, 300.0)
        state = SchedulerState(graph, platform)
        k = platform.n_classes
        available = set(graph.roots())
        while available:
            bd = None
            for task in sorted(available,
                               key={t: i for i, t in
                                    enumerate(graph.topological_order())}
                               .__getitem__):
                bd = state.best_est(task)
                if bd is not None:
                    break
            if bd is None:
                break
            n_uncommitted = graph.n_tasks - state.n_scheduled
            assert len(state._static) <= n_uncommitted
            assert sum(map(len, state._est_memo)) <= n_uncommitted * k
            state.commit(bd)
            available.discard(bd.task)
            available.update(state.pop_newly_ready())


def _class_mins(state):
    return list(state.avail.mins)


class TestClassMinima:
    """The resources every selector reads, ``state.avail.mins``, follow
    commits *and* direct writes."""

    def test_class_min_follows_commits(self):
        graph = random_dag(size=10, rng=0)
        state = SchedulerState(graph, Platform(2, 1))
        available = list(graph.roots())
        while available:
            bd = state.best_est(available.pop(0))
            state.commit(bd)
            assert _class_mins(state) == [
                min(state.avail[p] for p in state.platform.procs(m))
                for m in state.memories]
            available += state.pop_newly_ready()
        assert max(_class_mins(state)) > 0.0

    def test_direct_avail_write_moves_class_min(self):
        graph = random_dag(size=10, rng=0)
        state = SchedulerState(graph, Platform(2, 1))
        assert _class_mins(state) == [0.0, 0.0]
        state.avail[0] = 7.0
        assert _class_mins(state) == [0.0, 0.0]  # proc 1 still free
        state.avail[1] = 9.0
        assert _class_mins(state) == [7.0, 0.0]

    def test_equal_value_write_leaves_mins_equal(self):
        graph = random_dag(size=10, rng=0)
        state = SchedulerState(graph, Platform(1, 1))
        state.avail[0] = 0.0
        assert _class_mins(state) == [0.0, 0.0]
        assert list(state.avail) == [0.0, 0.0]

    def test_no_proc_class_is_inf(self):
        from repro.core.graph import TaskGraph
        g = TaskGraph(n_classes=3)
        g.add_task("a", times=(1.0, 1.0, 1.0))
        state = SchedulerState(g, Platform([1, 1, 0]))
        assert _class_mins(state) == [0.0, 0.0, math.inf]
