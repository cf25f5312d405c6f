"""The incremental EST kernel must be observationally identical to the
from-scratch evaluation (:class:`FreshKernel`) — every cached breakdown
equals a fresh one, on every candidate, after every commit, across
randomized daggen graphs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Platform, heft
from repro.core.memory_profile import MemoryProfile
from repro.dags import random_dag
from repro.scheduling.state import SchedulerState

from .fresh_kernel import FreshKernel


def _assert_breakdowns_equal(a, b):
    assert a.task == b.task and a.memory is b.memory
    for field in ("resource", "precedence", "task_mem", "comm_mem",
                  "cmax", "est", "eft", "comm_fit"):
        va, vb = getattr(a, field), getattr(b, field)
        assert va == vb or (math.isinf(va) and math.isinf(vb)), \
            f"{field}: cached={va} fresh={vb} for {a.task!r}/{a.memory}"


def _lockstep_run(graph, platform):
    """Drive cached and fresh states through the same decisions, comparing
    every candidate's full breakdown at every step."""
    inc = SchedulerState(graph, platform)
    ref = SchedulerState(graph, platform)
    ref.kernel = FreshKernel()
    memories = platform.memories()
    available = set(graph.roots())
    while available:
        best = None
        for task in sorted(available, key=str):
            for memory in memories:
                bd_inc = inc.est(task, memory)
                bd_ref = ref.est(task, memory)
                _assert_breakdowns_equal(bd_inc, bd_ref)
                if bd_inc.feasible and (best is None or bd_inc.eft < best.eft):
                    best = bd_inc
        if best is None:
            return False  # infeasible under these bounds: both agreed throughout
        p_inc = inc.commit(best)
        p_ref = ref.commit(ref.est(best.task, best.memory))
        assert (p_inc.proc, p_inc.start, p_inc.finish) == \
               (p_ref.proc, p_ref.start, p_ref.finish)
        available.discard(best.task)
        available.update(inc.pop_newly_ready())
        ref.pop_newly_ready()
    assert inc.done and ref.done
    assert inc.schedule.makespan == ref.schedule.makespan
    assert inc.peaks() == ref.peaks()
    return True


@settings(max_examples=15, deadline=None)
@given(size=st.integers(min_value=3, max_value=35),
       seed=st.integers(min_value=0, max_value=10**6),
       alpha=st.floats(min_value=0.4, max_value=1.2))
def test_cached_equals_fresh_on_random_daggen(size, seed, alpha):
    graph = random_dag(size=size, rng=seed)
    base = heft(graph, Platform(2, 1))
    ref_peak = max(base.meta["peak_blue"], base.meta["peak_red"]) or 1.0
    bounded = Platform(2, 1).with_uniform_bound(alpha * ref_peak)
    _lockstep_run(graph, bounded)


@pytest.mark.parametrize("seed", range(3))
def test_cached_equals_fresh_unbounded(seed):
    graph = random_dag(size=25, rng=seed)
    assert _lockstep_run(graph, Platform(1, 2))


@pytest.mark.parametrize("seed", range(2))
def test_cached_equals_fresh_three_classes(seed):
    from repro._util import as_rng
    from repro.core.graph import TaskGraph
    gen = as_rng(seed)
    g = TaskGraph(f"tri{seed}", n_classes=3)
    n = 15
    for k in range(n):
        g.add_task(k, times=[float(gen.integers(1, 20)) for _ in range(3)])
    for i in range(n):
        for j in range(i + 1, n):
            if gen.random() < 0.3:
                g.add_dependency(i, j, size=float(gen.integers(1, 8)),
                                 comm=float(gen.integers(1, 5)))
    assert _lockstep_run(g, Platform([1, 1, 1], [math.inf] * 3))


class TestProfileCompaction:
    def test_function_preserved_across_compaction(self):
        p = MemoryProfile(100.0)
        q = MemoryProfile(100.0)
        events = [(5.0, 0.0, 10.0), (-5.0, 0.0, 10.0), (3.0, 2.0, None),
                  (7.0, 4.0, 8.0), (-7.0, 4.0, 8.0), (2.0, 6.0, None)]
        for amount, start, end in events:
            p.add(amount, start, end)
            q.add(amount, start, end)
        q.compact()
        assert q.n_segments() <= p.n_segments()
        for t in [0.0, 1.0, 2.0, 3.9, 4.0, 6.0, 7.9, 8.0, 9.9, 10.0, 11.0]:
            assert q.used_at(t) == p.used_at(t)
        for need in (1.0, 50.0, 96.0, 99.0):
            assert q.earliest_fit(need) == p.earliest_fit(need)

    def test_compaction_does_not_bump_version(self):
        p = MemoryProfile(10.0)
        p.add(4.0, 1.0, 3.0)
        v = p.version
        p.compact()
        assert p.version == v

    def test_auto_compaction_bounds_segments(self):
        p = MemoryProfile(1000.0)
        # Allocate/release churn: every pair leaves the function unchanged
        # after its window, so the staircase should not grow without bound.
        for k in range(2000):
            p.add(1.0, float(k), float(k) + 0.5)
            p.add(-1.0, float(k), float(k) + 0.5)
        assert p.n_segments() <= 2 * MemoryProfile._COMPACT_MIN + 2
        assert p.used_at(123.25) == 0.0

    def test_earliest_fit_matches_bruteforce(self):
        p = MemoryProfile(10.0)
        p.add(8.0, 2.0, 5.0)
        p.add(4.0, 7.0, None)
        # free: [0,2): 10, [2,5): 2, [5,7): 10, [7,inf): 6
        assert p.earliest_fit(2.0) == 0.0
        assert p.earliest_fit(3.0) == 5.0   # blocked by [2,5) until 5...
        assert p.earliest_fit(6.0) == 5.0
        assert p.earliest_fit(6.5) == math.inf  # tail only has 6 free
        assert p.earliest_fit(11.0) == math.inf
