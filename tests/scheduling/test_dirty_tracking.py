"""Per-class invalidation: ``SchedulerState.commit`` moves the profile
versions of exactly the memory classes it writes, the kernel's breakdown
memo re-evaluates in full only those classes, and the selectors reading
the memo still take bit-identical decisions (the golden-schedule suite
pins the same property end to end)."""

import pytest

from repro.core.graph import TaskGraph
from repro.core.platform import Memory, Platform
from repro.dags.daggen import random_dag
from repro.dags.toy import dex
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import SchedulerState
from repro.scheduling.sufferage import memsufferage

from .scan_reference import reference

BOUNDED = Platform(1, 1, 10.0, 10.0)


def _commit_on(state, task, memory):
    bd = state.est(task, memory)
    assert bd.feasible
    state.commit(bd)
    return bd


def _versions(state):
    return [state.mem[m].version for m in state.memories]


def _outcomes(state, task):
    """Per class, the memo outcome evaluating ``task`` takes now:
    ``"full_evals"``, ``"refreshes"`` or ``"reused"``."""
    out = []
    for memory in state.memories:
        before = state.eval_counts()
        state.est(task, memory)
        after = state.eval_counts()
        moved = [k for k in after if after[k] != before[k]]
        assert len(moved) == 1
        out.append(moved[0].removeprefix("n_"))
    return out


def _two_roots():
    """Roots ``a`` (feeds ``c``) and ``b`` (no files)."""
    g = TaskGraph("two-roots")
    g.add_task("a", w_blue=2, w_red=2)
    g.add_task("b", w_blue=1, w_red=1)
    g.add_task("c", w_blue=1, w_red=1)
    g.add_dependency("a", "c", size=2, comm=1)
    return g


class TestCommitRecordsTouchedClasses:
    def test_root_with_outputs_touches_its_class_only(self):
        state = SchedulerState(_two_roots(), BOUNDED)
        assert _outcomes(state, "b") == ["full_evals", "full_evals"]
        _commit_on(state, "a", Memory.BLUE)   # outputs, no inputs
        assert state.n_scheduled == 1
        assert _versions(state)[0] > 0 and _versions(state)[1] == 0
        # Red's profile and processors are as they were: reused verbatim.
        assert _outcomes(state, "b") == ["full_evals", "reused"]

    def test_cross_memory_commit_touches_both_classes(self):
        state = SchedulerState(dex(), BOUNDED)
        _commit_on(state, "T1", Memory.BLUE)
        assert _outcomes(state, "T3") == ["full_evals", "full_evals"]
        # T2 reads T1's file; placing it on red forces a transfer, which
        # allocates in red and schedules a release in blue.
        before = _versions(state)
        _commit_on(state, "T2", Memory.RED)
        assert all(a > b for a, b in zip(_versions(state), before))
        assert _outcomes(state, "T3") == ["full_evals", "full_evals"]

    def test_same_memory_commit_touches_one_class(self):
        state = SchedulerState(dex(), BOUNDED)
        _commit_on(state, "T1", Memory.BLUE)
        assert _outcomes(state, "T3") == ["full_evals", "full_evals"]
        red = _versions(state)[1]
        _commit_on(state, "T2", Memory.BLUE)
        assert _versions(state)[1] == red
        assert _outcomes(state, "T3") == ["full_evals", "reused"]

    def test_task_without_files_touches_nothing(self):
        g = TaskGraph()
        g.add_task("a", w_blue=2, w_red=1)
        g.add_task("b", w_blue=2, w_red=1)
        state = SchedulerState(g, BOUNDED)
        assert _outcomes(state, "b") == ["full_evals", "full_evals"]
        _commit_on(state, "a", Memory.BLUE)
        assert _versions(state) == [0, 0]
        assert state.n_scheduled == 1
        # Only blue's processor moved: its resource half is refreshed.
        assert _outcomes(state, "b") == ["refreshes", "reused"]

    def test_full_evals_track_profile_mutations_exactly(self):
        """A ready task's class takes a full evaluation iff the class's
        profile version moved since the task's last evaluation."""
        graph = random_dag(size=40, rng=13)
        platform = Platform(n_blue=1, n_red=1, mem_blue=400.0, mem_red=400.0)
        state = SchedulerState(graph, platform)
        available = set(graph.roots())
        steps = 0
        while available:
            seen = {t: _versions(state) for t in available}
            for task in available:
                state.best_est(task)
            task = min(available, key=str)
            state.commit(state.best_est(task))
            available.discard(task)
            for t, versions in seen.items():
                if t == task:
                    continue
                moved = [a != b for a, b in zip(_versions(state), versions)]
                assert [o == "full_evals" for o in _outcomes(state, t)] \
                    == moved
                steps += 1
            available.update(state.pop_newly_ready())
        assert steps > 0


class TestSelectorsStayBitIdentical:
    """Belt-and-braces next to the goldens: selection through the
    breakdown memo equals each heuristic's reference rescan, including
    k > 2."""

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
