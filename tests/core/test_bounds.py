"""Lower bounds: analytic values on simple shapes, validity on random DAGs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Platform, heft, lower_bound, memheft, memminmin, minmin
from repro._util import is_installed
from repro.core.bounds import (
    critical_path_lower_bound,
    split_work_lower_bound,
    work_lower_bound,
)
from repro.dags import chain, dex, fork_join, random_dag

#: The LP split-work bound is the one numpy/scipy-only bound.  The
#: module imports scipy on its first LP call, so ask whether scipy is
#: installed rather than whether the module has loaded it yet.
needs_lp = pytest.mark.skipif(not is_installed("scipy"),
                              reason="LP bound needs numpy + scipy")


class TestCriticalPath:
    def test_chain(self):
        g = chain(5, w_blue=2, w_red=1)
        assert critical_path_lower_bound(g) == 5  # five tasks at min time 1

    def test_dex(self):
        assert critical_path_lower_bound(dex()) == 5  # T1(1)+T3(3)+T4(1)

    def test_fork_join(self):
        g = fork_join(10, w_blue=3, w_red=2)
        assert critical_path_lower_bound(g) == 6  # src + one branch + sink


class TestWorkBounds:
    def test_work_bound_divides_by_all_procs(self):
        g = fork_join(8, w_blue=2, w_red=2)  # 10 tasks, min work 2 each
        assert work_lower_bound(g, Platform(2, 2)) == 20 / 4

    @needs_lp
    def test_split_bound_respects_per_class_speeds(self):
        # Tasks fast on red only; one red processor is the bottleneck.
        g = chain(4, w_blue=100, w_red=1)
        lb = split_work_lower_bound(g, Platform(1, 1))
        # LP optimum: balance 400x = 4(1-x) -> x = 1/101, T = 400/101.
        assert lb == pytest.approx(400 / 101, rel=1e-6)

    @needs_lp
    def test_split_bound_degenerates_without_blue(self):
        g = chain(3, w_blue=5, w_red=2)
        assert split_work_lower_bound(g, Platform(0, 2)) == pytest.approx(3.0)

    @needs_lp
    def test_split_bound_degenerates_without_red(self):
        g = chain(3, w_blue=5, w_red=2)
        assert split_work_lower_bound(g, Platform(3, 0)) == pytest.approx(5.0)

    @needs_lp
    def test_split_bound_at_least_work_bound_when_balanced(self):
        g = fork_join(6, w_blue=4, w_red=4)
        assert (split_work_lower_bound(g, Platform(1, 1))
                >= work_lower_bound(g, Platform(1, 1)) - 1e-9)


class TestCombinedBound:
    def test_empty_graph(self):
        from repro import TaskGraph
        g = TaskGraph()
        assert lower_bound(g, Platform(1, 1)) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("procs", [(1, 1), (2, 1), (2, 3)])
    def test_no_heuristic_beats_the_bound(self, seed, procs):
        g = random_dag(size=15, rng=seed)
        plat = Platform(*procs)
        lb = lower_bound(g, plat)
        for algo in (heft, minmin, memheft, memminmin):
            assert algo(g, plat).makespan >= lb - 1e-9


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_bound_is_nonnegative_and_finite(n, seed):
    g = random_dag(size=n, rng=seed)
    lb = lower_bound(g, Platform(2, 2))
    assert 0 <= lb < float("inf")
