"""The flat data layout under the kernel: the avail vector (list
semantics + per-class minima kept on every write + index-order
choose_proc) and the FlatGraph CSR adjacency (edge-order faithful to the
TaskGraph views)."""

import math

import pytest

from repro import Memory, Platform
from repro._util import EPS
from repro.core.graph import TaskGraph
from repro.dags import random_dag
from repro.dags.toy import dex
from repro.scheduling.state import SchedulerState, _AvailVector


class TestAvailVector:
    def _vec(self, values, counts):
        platform = Platform(list(counts), [math.inf] * len(counts))
        return _AvailVector(values, platform)

    def test_list_semantics(self):
        v = self._vec([0.0, 0.0, 0.0], (2, 1))
        v[0] = 3.0
        assert list(v) == [3.0, 0.0, 0.0]
        assert v[0] == 3.0 and len(v) == 3

    def test_class_min_tracks_writes(self):
        v = self._vec([0.0, 0.0, 0.0], (2, 1))
        assert v.mins[0] == 0.0
        v[0] = 5.0
        assert v.mins[0] == 0.0
        v[1] = 2.0
        assert v.mins[0] == 2.0
        v[1] = 7.0
        assert v.mins[0] == 5.0
        assert v.mins[1] == 0.0

    def test_equal_write_leaves_mins_equal(self):
        v = self._vec([1.0, 2.0], (1, 1))
        v[0] = 1.0
        assert v.mins == [1.0, 2.0]
        v[0] = 1.5
        assert v.mins == [1.5, 2.0]

    def test_empty_class_min_is_inf(self):
        v = self._vec([0.0], (1, 0))
        assert v.mins[1] == math.inf

    @pytest.mark.parametrize("seed", range(5))
    def test_mins_match_class_minima_after_random_writes(self, seed):
        import random
        rnd = random.Random(seed)
        counts = (3, 0, 4, 1)
        v = self._vec([0.0] * sum(counts), counts)
        platform = Platform(list(counts), [math.inf] * len(counts))
        for _ in range(200):
            p = rnd.randrange(len(v))
            # A small value pool makes equal-value writes common.
            v[p] = v[p] if rnd.random() < 0.2 else rnd.choice(
                [0.0, 0.5, 1.0, 2.5, 4.0, 8.0])
            assert v.mins == [
                min((v[q] for q in platform.procs(ci)), default=math.inf)
                for ci in range(len(counts))]

    def test_structural_mutation_forbidden(self):
        v = self._vec([0.0, 0.0], (1, 1))
        with pytest.raises(TypeError):
            v.append(1.0)
        with pytest.raises(TypeError):
            del v[0]
        with pytest.raises(TypeError):
            v.sort()
        with pytest.raises(TypeError):
            v[0:1] = [2.0]


class TestChooseProc:
    def _reference(self, state, memory, est):
        """The historical linear scan over every processor of the class."""
        best_proc, best_avail = -1, -math.inf
        for p in state.platform.procs(memory):
            a = state.avail[p]
            if a <= est + EPS and a > best_avail + EPS:
                best_avail, best_proc = a, p
        return best_proc

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_linear_reference_on_random_avails(self, seed):
        import random
        rnd = random.Random(seed)
        platform = Platform(6, 3)
        state = SchedulerState(random_dag(size=5, rng=0), platform)
        for _ in range(40):
            p = rnd.randrange(platform.n_procs)
            state.avail[p] = rnd.choice([0.0, 1.0, 2.5, 4.0, 8.0])
            est = rnd.choice([0.0, 1.0, 2.5, 4.0, 9.0])
            for memory in state.memories:
                ref = self._reference(state, memory, est)
                if ref < 0:
                    continue  # no processor free: est below every avail
                assert state.choose_proc(memory, est) == ref

    def test_ties_prefer_lowest_index(self):
        state = SchedulerState(dex(), Platform(3, 1))
        state.avail[0] = 2.0
        state.avail[1] = 2.0
        assert state.choose_proc(Memory.BLUE, est=5.0) == 0

    def test_minimises_idle_time(self):
        state = SchedulerState(dex(), Platform(3, 1))
        state.avail[0] = 5.0
        state.avail[1] = 2.0
        state.avail[2] = 9.0
        assert state.choose_proc(Memory.BLUE, est=6.0) == 0
        assert state.choose_proc(Memory.BLUE, est=2.0) == 1

    def test_boundary_avail_exactly_est_plus_eps_included(self):
        state = SchedulerState(dex(), Platform(2, 1))
        state.avail[0] = 3.0 + EPS
        state.avail[1] = 0.0
        assert state.choose_proc(Memory.BLUE, est=3.0) == 0


class TestFlatGraph:
    def test_matches_graph_views(self):
        graph = random_dag(size=30, rng=3)
        flat = graph.flatten()
        assert flat.n_tasks == graph.n_tasks
        for i, task in enumerate(flat.order):
            assert flat.index[task] == i
            parents = [flat.order[flat.parent_row[e]]
                       for e in range(flat.parent_ptr[i],
                                      flat.parent_ptr[i + 1])]
            assert parents == list(graph.parents(task))
            for off, parent in enumerate(parents):
                e = flat.parent_ptr[i] + off
                assert flat.parent_comm[e] == graph.comm(parent, task)
                assert flat.parent_size[e] == graph.size(parent, task)
            children = [flat.order[flat.child_row[e]]
                        for e in range(flat.child_ptr[i],
                                       flat.child_ptr[i + 1])]
            assert children == list(graph.children(task))
            assert flat.out_size[i] == graph.out_size(task)
            assert flat.times[i] == graph.times(task)

    def test_cached_until_mutation(self):
        graph = random_dag(size=10, rng=0)
        flat = graph.flatten()
        assert graph.flatten() is flat
        graph.add_task("extra", w_blue=1.0, w_red=1.0)
        flat2 = graph.flatten()
        assert flat2 is not flat
        assert flat2.n_tasks == flat.n_tasks + 1
        graph.add_dependency(graph.topological_order()[0], "extra",
                             size=1.0, comm=1.0)
        assert graph.flatten() is not flat2

    def test_row_order_is_topological(self):
        graph = dex()
        flat = graph.flatten()
        for i in range(flat.n_tasks):
            for e in range(flat.parent_ptr[i], flat.parent_ptr[i + 1]):
                assert flat.parent_row[e] < i


class TestFlatGraphEmptyEdges:
    def test_single_task_graph(self):
        g = TaskGraph("one")
        g.add_task("t", w_blue=2.0, w_red=3.0)
        flat = g.flatten()
        assert flat.n_tasks == 1
        assert flat.parent_ptr == [0, 0]
        assert flat.child_ptr == [0, 0]
        assert flat.out_size == [0.0]
