"""DAG-scoped candidate invalidation must be invisible in the schedules
(bit-identical to the coarse per-class rule and the naive rescan) while
measurably cutting full kernel re-evaluations, and the commit-side cache
eviction must keep the EST memos bounded to the live candidate set."""

import math

import pytest

from repro import Platform
from repro.dags import random_dag
from repro.scheduling.candidates import MinEFTSelector, SufferageSelector
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import SchedulerState
from repro.scheduling.sufferage import memsufferage

SELECTORS = (MinEFTSelector, SufferageSelector)


def _drive(graph, platform, selector_cls, *, dag_scoped):
    """Run the generic selector loop to completion (or infeasibility)."""
    state = SchedulerState(graph, platform)
    index = {t: k for k, t in enumerate(graph.topological_order())}
    selector = selector_cls(state, index, dag_scoped=dag_scoped)
    for task in graph.roots():
        selector.push(task)
    while len(selector):
        best = selector.select()
        if best is None:
            break
        state.commit(best)
        selector.remove(best.task)
        for task in state.pop_newly_ready():
            selector.push(task)
    snap = {t: (p.proc, p.memory.index, p.start, p.finish)
            for t in graph.tasks() if state.is_scheduled(t)
            for p in (state.schedule.placement(t),)}
    return snap, selector.stats


class TestScopedEqualsCoarse:
    @pytest.mark.parametrize("selector_cls", SELECTORS,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_schedules_across_bounds(self, selector_cls, seed):
        graph = random_dag(size=60, width=0.6, rng=seed)
        for platform in (Platform(2, 2),
                         Platform(2, 2, 300.0, 300.0),
                         Platform(2, 2, 90.0, 90.0),
                         Platform(1, 2, 60.0, 60.0)):
            scoped, _ = _drive(graph, platform, selector_cls,
                               dag_scoped=True)
            coarse, _ = _drive(graph, platform, selector_cls,
                               dag_scoped=False)
            assert scoped == coarse

    @pytest.mark.parametrize("selector_cls", SELECTORS,
                             ids=lambda c: c.__name__)
    def test_identical_on_heterogeneous_platform(self, selector_cls):
        graph = random_dag(size=40, rng=4)
        platform = Platform(2, 2, 200.0, 200.0,
                            speeds=[1.0, 2.0, 0.5, 1.0])
        scoped, _ = _drive(graph, platform, selector_cls, dag_scoped=True)
        coarse, _ = _drive(graph, platform, selector_cls, dag_scoped=False)
        assert scoped == coarse

    @pytest.mark.parametrize("fn", (memminmin, memsufferage),
                             ids=lambda f: f.__name__)
    def test_driver_kwarg_matches_naive(self, fn):
        graph = random_dag(size=30, rng=6)
        platform = Platform(2, 1, 150.0, 150.0)
        lazy = fn(graph, platform, lazy=True, dag_scoped=True)
        coarse = fn(graph, platform, lazy=True, dag_scoped=False)
        naive = fn(graph, platform, lazy=False)
        for t in graph.tasks():
            a, b, c = (s.placement(t) for s in (lazy, coarse, naive))
            assert (a.proc, a.memory, a.start, a.finish) \
                == (b.proc, b.memory, b.start, b.finish) \
                == (c.proc, c.memory, c.start, c.finish)


class TestReEvaluationReduction:
    def test_unbounded_wide_dag_cuts_full_evals_2x(self):
        """The acceptance bound: on wide DAGs with untouched (unbounded)
        profiles, scoped invalidation does >= 2x fewer full kernel
        evaluations than the coarse per-class rule — commits only move
        processor avail, which is an O(1) refresh, never a re-evaluation."""
        graph = random_dag(size=150, width=0.8, rng=1)
        platform = Platform(2, 2)
        for selector_cls in SELECTORS:
            _, scoped = _drive(graph, platform, selector_cls,
                               dag_scoped=True)
            _, coarse = _drive(graph, platform, selector_cls,
                               dag_scoped=False)
            assert scoped.n_full_evals * 2 <= coarse.n_full_evals, \
                selector_cls.__name__
            assert scoped.n_refreshes > 0
            # Scoped never does *more* work than coarse re-evaluation.
            assert scoped.n_full_evals <= coarse.n_full_evals

    def test_unbounded_full_evals_is_one_per_task_class(self):
        """With unbounded profiles every candidate needs exactly one full
        evaluation per class (on push); everything after is refresh/reuse."""
        graph = random_dag(size=80, width=0.8, rng=2)
        _, stats = _drive(graph, Platform(2, 2), MinEFTSelector,
                          dag_scoped=True)
        assert stats.n_full_evals == graph.n_tasks * 2

    def test_stats_dict_roundtrip(self):
        graph = random_dag(size=20, rng=0)
        _, stats = _drive(graph, Platform(1, 1), MinEFTSelector,
                          dag_scoped=True)
        d = stats.as_dict()
        assert set(d) == {"n_full_evals", "n_refreshes", "n_reused"}
        assert all(v >= 0 for v in d.values())


class TestCommitEviction:
    """Satellite: commit must evict the committed task's memo entries, so
    the _static/_fit caches stay bounded to ready-but-uncommitted tasks."""

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
                assert all(t not in slot[1] for slot in state._fit)
            ready = ready[1:] + state.pop_newly_ready()
        # Everything committed -> both memos fully drained.
        assert state.done
        assert not state._static
        assert all(not slot[1] for slot in state._fit)

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
            assert sum(len(slot[1]) for slot in state._fit) \
                <= n_uncommitted * k
            state.commit(bd)
            available.discard(bd.task)
            available.update(state.pop_newly_ready())


class TestClassResourcesCache:
    """Satellite: class_resources() is cached on the avail vector's
    version counter and invalidated by commits *and* direct writes."""

    def test_cached_until_avail_moves(self):
        graph = random_dag(size=10, rng=0)
        state = SchedulerState(graph, Platform(2, 1))
        first = state.class_resources()
        assert state.class_resources() is first  # served from cache
        bd = state.best_est(graph.roots()[0])
        state.commit(bd)
        second = state.class_resources()
        assert second is not first

    def test_direct_avail_write_invalidates(self):
        graph = random_dag(size=10, rng=0)
        state = SchedulerState(graph, Platform(2, 1))
        assert state.class_resources() == [0.0, 0.0]
        state.avail[0] = 7.0
        assert state.class_resources() == [0.0, 0.0]  # proc 1 still free
        state.avail[1] = 9.0
        assert state.class_resources() == [7.0, 0.0]

    def test_equal_value_write_keeps_cache(self):
        graph = random_dag(size=10, rng=0)
        state = SchedulerState(graph, Platform(1, 1))
        first = state.class_resources()
        v = state.avail.version
        state.avail[0] = 0.0  # no-op write
        assert state.avail.version == v
        assert state.class_resources() is first

    def test_no_proc_class_is_inf(self):
        from repro.multi import MultiPlatform, MultiTaskGraph
        g = MultiTaskGraph(3)
        g.add_task("a", (1.0, 1.0, 1.0))
        from repro.multi import MultiSchedulerState
        state = MultiSchedulerState(g, MultiPlatform([1, 1, 0]))
        assert state.class_resources() == [0.0, 0.0, math.inf]
