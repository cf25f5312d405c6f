"""k-memory platform and graph models."""

import math

import pytest

from repro import Platform, TaskGraph


class TestMultiPlatform:
    def test_indexing_three_classes(self):
        p = Platform([2, 1, 3])
        assert p.n_classes == 3
        assert p.n_procs == 6
        assert list(p.procs(0)) == [0, 1]
        assert list(p.procs(1)) == [2]
        assert list(p.procs(2)) == [3, 4, 5]
        assert [p.class_of(k) for k in range(6)] == [0, 0, 1, 2, 2, 2]

    def test_default_capacities_unbounded(self):
        p = Platform([1, 1, 1])
        assert not p.is_memory_bounded
        assert all(math.isinf(c) for c in p.capacities)

    def test_with_capacities(self):
        p = Platform([1, 1], [5, 7])
        assert p.capacity(0) == 5 and p.capacity(1) == 7
        assert p.with_uniform_bound(3).capacities == (3, 3)
        assert not p.unbounded().is_memory_bounded

    def test_validation(self):
        with pytest.raises(ValueError):
            Platform([])
        with pytest.raises(ValueError):
            Platform([0, 0])
        with pytest.raises(ValueError):
            Platform([1], [5, 6])
        with pytest.raises(ValueError):
            Platform([1], [-1])
        with pytest.raises(ValueError):
            Platform([1]).class_of(5)

    def test_empty_class_allowed(self):
        p = Platform([0, 2])
        assert list(p.procs(0)) == []


class TestMultiTaskGraph:
    def test_times_per_class(self):
        g = TaskGraph(n_classes=3)
        g.add_task("a", times=(6, 3, 1))
        assert g.w("a", 0) == 6 and g.w("a", 2) == 1
        assert g.w_min("a") == 1
        assert g.w_mean("a") == pytest.approx(10 / 3)

    def test_wrong_arity_rejected(self):
        g = TaskGraph(n_classes=2)
        with pytest.raises(ValueError, match="expected 2 times"):
            g.add_task("a", times=(1, 2, 3))

    def test_edges_and_mem_req(self):
        g = TaskGraph(n_classes=2)
        g.add_task("a", times=(1, 1))
        g.add_task("b", times=(1, 1))
        g.add_dependency("a", "b", size=4, comm=2)
        assert g.mem_req("a") == 4
        assert g.mem_req("b") == 4
        assert g.comm("a", "b") == 2

    def test_cycle_detected(self):
        g = TaskGraph(n_classes=2)
        for n in "ab":
            g.add_task(n, times=(1, 1))
        g.add_dependency("a", "b")
        g.add_dependency("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            g.validate()
