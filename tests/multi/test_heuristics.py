"""Genuinely multi-memory behaviour (k >= 3) through the core API: CPU + two
accelerators."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Platform, TaskGraph, memheft, memminmin, validate_schedule
from repro._util import as_rng
from repro.scheduling.state import InfeasibleScheduleError


def tri_chain(n=6, *, size=2.0, comm=1.0):
    """Chain where class 2 (say a GPU) is fastest: times (9, 3, 1)."""
    g = TaskGraph("tri-chain", n_classes=3)
    for k in range(n):
        g.add_task(k, times=(9, 3, 1))
    for k in range(n - 1):
        g.add_dependency(k, k + 1, size=size, comm=comm)
    return g


def random_tri_graph(n, seed):
    gen = as_rng(seed)
    g = TaskGraph(f"tri{n}", n_classes=3)
    for k in range(n):
        g.add_task(k, times=[float(gen.integers(1, 20)) for _ in range(3)])
    for i in range(n):
        for j in range(i + 1, n):
            if gen.random() < 0.35:
                g.add_dependency(i, j, size=float(gen.integers(1, 8)),
                                 comm=float(gen.integers(1, 5)))
    return g


class TestTriMemoryBasics:
    def test_chain_lands_on_fastest_class(self):
        g = tri_chain()
        plat = Platform([1, 1, 1])
        s = memheft(g, plat)
        assert all(p.cls == 2 for p in s.placements())
        assert s.makespan == 6  # six tasks at speed 1, no transfers

    def test_capacity_on_fast_class_forces_spill(self):
        g = tri_chain()
        # Class 2 cannot even hold one 4-unit working set (in+out files).
        plat = Platform([1, 1, 1], [math.inf, math.inf, 3])
        s = memheft(g, plat)
        validate_schedule(g, plat, s)
        assert any(p.cls != 2 for p in s.placements())

    def test_all_classes_infeasible_raises(self):
        g = tri_chain()
        plat = Platform([1, 1, 1], [3, 3, 3])
        with pytest.raises(InfeasibleScheduleError):
            memheft(g, plat)
        with pytest.raises(InfeasibleScheduleError):
            memminmin(g, plat)

    def test_empty_class_never_used(self):
        g = tri_chain()
        plat = Platform([1, 1, 0])
        s = memminmin(g, plat)
        validate_schedule(g, plat, s)
        assert all(p.cls != 2 for p in s.placements())

    def test_peaks_meta_matches_validator(self):
        g = random_tri_graph(12, seed=3)
        plat = Platform([2, 1, 1])
        s = memheft(g, plat)
        peaks = validate_schedule(g, plat, s)
        assert [peaks[m] for m in plat.memories()] == \
            pytest.approx(s.meta["peaks"])


@pytest.mark.parametrize("algo", [memheft, memminmin])
@pytest.mark.parametrize("seed", range(3))
def test_random_tri_graphs_schedule_validly(algo, seed):
    g = random_tri_graph(15, seed)
    plat = Platform([2, 1, 1])
    s = algo(g, plat)
    validate_schedule(g, plat, s)
    assert len(s) == g.n_tasks


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.3, max_value=1.0))
def test_bounded_tri_schedules_respect_capacity(n, seed, alpha):
    g = random_tri_graph(n, seed)
    plat = Platform([1, 1, 1])
    base = memheft(g, plat)
    ref = max(base.meta["peaks"]) or 1.0
    bounded = plat.with_uniform_bound(alpha * ref)
    try:
        s = memheft(g, bounded)
    except InfeasibleScheduleError:
        return
    peaks = validate_schedule(g, bounded, s)
    assert all(p <= alpha * ref + 1e-6 for p in peaks.values())
