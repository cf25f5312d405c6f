"""Per-class dirty tracking: ``SchedulerState.commit`` records exactly the
memory classes it mutated, and the selectors keyed on those serials still
take bit-identical decisions (the golden-schedule suite pins the same
property end to end)."""

import pytest

from repro.core.platform import Memory, Platform
from repro.dags.daggen import random_dag
from repro.dags.toy import dex
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import SchedulerState
from repro.scheduling.sufferage import memsufferage

from .scan_reference import reference


def _commit_on(state, task, memory):
    bd = state.est(task, memory)
    assert bd.feasible
    state.commit(bd)
    return bd


class TestCommitRecordsTouchedClasses:
    def test_root_with_outputs_touches_its_class_only(self):
        state = SchedulerState(dex(), Platform(1, 1))
        _commit_on(state, "T1", Memory.BLUE)   # T1 has outputs, no inputs
        assert state.last_touched_classes == (0,)
        assert state.commit_serial == 1
        assert state.class_touch_serial == [1, 0]

    def test_cross_memory_commit_touches_both_classes(self):
        state = SchedulerState(dex(), Platform(1, 1))
        _commit_on(state, "T1", Memory.BLUE)
        # T2 reads T1's file; placing it on red forces a transfer, which
        # allocates in red and schedules a release in blue.
        _commit_on(state, "T2", Memory.RED)
        assert state.last_touched_classes == (0, 1)
        assert state.class_touch_serial == [2, 2]

    def test_same_memory_commit_touches_one_class(self):
        state = SchedulerState(dex(), Platform(1, 1))
        _commit_on(state, "T1", Memory.BLUE)
        _commit_on(state, "T2", Memory.BLUE)
        assert state.last_touched_classes == (0,)
        assert state.class_touch_serial == [2, 0]

    def test_task_without_files_touches_nothing(self):
        from repro.core.graph import TaskGraph
        g = TaskGraph()
        g.add_task("a", w_blue=2, w_red=1)
        state = SchedulerState(g, Platform(1, 1))
        _commit_on(state, "a", Memory.BLUE)
        assert state.last_touched_classes == ()
        assert state.commit_serial == 1
        assert state.class_touch_serial == [0, 0]

    def test_copy_preserves_dirty_state(self):
        state = SchedulerState(dex(), Platform(1, 1))
        _commit_on(state, "T1", Memory.BLUE)
        clone = state.copy()
        assert clone.commit_serial == state.commit_serial
        assert clone.class_touch_serial == state.class_touch_serial
        assert clone.last_touched_classes == state.last_touched_classes
        # And the clone's counters advance independently.
        _commit_on(clone, "T2", Memory.BLUE)
        assert state.commit_serial == 1
        assert clone.commit_serial == 2

    def test_serials_track_profile_mutations_exactly(self):
        """A class's touch serial moves iff its profile version moved."""
        graph = random_dag(size=40, rng=13)
        platform = Platform(n_blue=1, n_red=1)
        state = SchedulerState(graph, platform)
        versions = {m: state.mem[m].version for m in state.memories}
        available = set(graph.roots())
        while available:
            task = min(available, key=str)
            bd = state.best_est(task)
            state.commit(bd)
            available.discard(task)
            available.update(state.pop_newly_ready())
            for m in state.memories:
                moved = state.mem[m].version != versions[m]
                assert (m.index in state.last_touched_classes) == moved
                versions[m] = state.mem[m].version


class TestSelectorsStayBitIdentical:
    """Belt-and-braces next to the goldens: selection on the touch-serial
    stamps equals each heuristic's reference rescan, including k > 2."""

    @pytest.mark.parametrize("algo,kwargs", [
        (memheft, {}), (memminmin, {}), (memsufferage, {})])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dual_platform(self, algo, kwargs, seed):
        graph = random_dag(size=35, rng=seed)
        platform = Platform(n_blue=2, n_red=1, mem_blue=80, mem_red=80)
        try:
            lazy = algo(graph, platform, **kwargs)
            naive = reference(algo)(graph, platform, **kwargs)
        except Exception as exc:  # InfeasibleScheduleError: try unbounded
            lazy = algo(graph, platform.unbounded(), **kwargs)
            naive = reference(algo)(graph, platform.unbounded(), **kwargs)
            assert "Infeasible" in type(exc).__name__
        assert [(p.task, p.proc, p.memory, p.start, p.finish)
                for p in lazy.placements()] == \
               [(p.task, p.proc, p.memory, p.start, p.finish)
                for p in naive.placements()]

    @pytest.mark.parametrize("algo", [memminmin, memsufferage])
    def test_three_class_platform(self, algo):
        from repro._util import as_rng
        from repro.core.graph import TaskGraph
        gen = as_rng(17)
        graph = TaskGraph("dirty-tri", n_classes=3)
        for k in range(22):
            graph.add_task(k, times=[float(gen.integers(1, 20))
                                     for _ in range(3)])
        for i in range(22):
            for j in range(i + 1, 22):
                if gen.random() < 0.25:
                    graph.add_dependency(i, j,
                                         size=float(gen.integers(1, 8)),
                                         comm=float(gen.integers(1, 5)))
        platform = Platform([1, 1, 1], [200.0, 200.0, 200.0])
        lazy = algo(graph, platform)
        naive = reference(algo)(graph, platform)
        assert [(p.task, p.proc, p.memory, p.start, p.finish)
                for p in lazy.placements()] == \
               [(p.task, p.proc, p.memory, p.start, p.finish)
                for p in naive.placements()]
