"""The scalar EST kernel: its batch entry points agree with the
single-candidate path and with the from-scratch reference
(``evaluate_fresh``) at every step of a real run, exact EPS ties resolve
the way the §5.1 chains say, the ``earliest_fit`` memo follows the
profile versions, and whole heuristic runs are byte-identical whether the
kernel serves candidates from its caches or recomputes them."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Platform, heft
from repro.core.graph import TaskGraph
from repro.dags import random_dag
from repro.scheduling import state as state_mod
from repro.scheduling.kernel import (
    ESTBreakdown,
    ScalarKernel,
    infeasible_breakdown,
    resolve_backend,
)
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import InfeasibleScheduleError, SchedulerState
from repro.scheduling.sufferage import memsufferage

HEURISTICS = (memheft, memminmin, memsufferage)

PLATFORMS = [
    pytest.param(Platform(2, 2, 80.0, 80.0), id="bounded"),
    pytest.param(Platform(3, 1, math.inf, 50.0), id="mixed"),
    pytest.param(Platform(2, 2, 120.0, 120.0, speeds=[1.0, 2.0, 0.5, 1.0]),
                 id="hetero"),
    pytest.param(Platform([1, 1, 1], [60.0, math.inf, 40.0]),
                 id="three-class"),
]


class _FreshKernel(ScalarKernel):
    """Serves every candidate through the from-scratch reference path: no
    precedence cache, no ``earliest_fit`` memo."""

    evaluate = ScalarKernel.evaluate_fresh


def _snap(schedule, graph):
    return [(t, p.proc, p.memory.index, p.start, p.finish)
            for t in graph.tasks()
            for p in (schedule.placement(t),)]


def _three_class_graph():
    from repro.multi import MultiTaskGraph
    g = MultiTaskGraph(3, name="tri")
    for k in range(12):
        g.add_task(k, (float(1 + k % 5), float(2 + k % 3), float(1 + k % 7)))
    for i in range(12):
        for j in range(i + 1, 12):
            if (i * 7 + j) % 3 == 0:
                g.add_dependency(i, j, size=float(1 + (i + j) % 4),
                                 comm=float(1 + (i * j) % 5))
    return g


def _graph_for(platform):
    if platform.n_classes == 3:
        return _three_class_graph()
    return random_dag(size=40, rng=11)


def _walk(state):
    """Yield the ready list before each commit of a first-fit run (commit
    the first ready task that fits anywhere)."""
    ready = list(state.ready_roots())
    while ready:
        yield ready
        committed = None
        for task in ready:
            bd = state.best_est(task)
            if bd is not None:
                committed = bd
                break
        if committed is None:
            return
        state.commit(committed)
        ready = ([t for t in ready if t != committed.task]
                 + state.pop_newly_ready())


class TestResolveBackend:
    def test_names(self):
        assert resolve_backend().name == "scalar"
        assert isinstance(resolve_backend(), ScalarKernel)

    def test_singletons(self):
        assert resolve_backend() is resolve_backend()

    def test_takes_no_arguments(self):
        with pytest.raises(TypeError):
            resolve_backend("numpy")

    def test_state_uses_the_resolved_kernel(self):
        state = SchedulerState(random_dag(size=8, rng=1), Platform(1, 1))
        assert state.kernel is resolve_backend()
        assert state.copy().kernel is state.kernel


class TestBreakdowns:
    def test_infeasible_breakdown(self):
        memory = Platform(1, 1).memories()[1]
        bd = infeasible_breakdown("t", memory)
        assert not bd.feasible
        assert bd.cls == 1
        assert math.isinf(bd.est) and math.isinf(bd.eft)

    def test_not_ready_task_is_infeasible(self):
        graph = random_dag(size=12, rng=4)
        state = SchedulerState(graph, Platform(1, 1))
        blocked = next(t for t in graph.tasks() if graph.parents(t))
        kernel = resolve_backend()
        for memory in state.memories:
            assert not kernel.evaluate(state, blocked, memory).feasible
            assert not kernel.evaluate_fresh(state, blocked, memory).feasible

    def test_class_without_processors_is_infeasible(self):
        graph = random_dag(size=6, rng=2)
        state = SchedulerState(graph, Platform(1, 0))
        root = next(iter(state.ready_roots()))
        red = state.memories[1]
        kernel = resolve_backend()
        assert kernel.evaluate(state, root, red) == \
            infeasible_breakdown(root, red)
        assert kernel.evaluate_fresh(state, root, red) == \
            infeasible_breakdown(root, red)
        assert state.best_est(root).memory.index == 0

    def test_best_est_batch_none_when_nothing_fits(self):
        g = TaskGraph("big")
        g.add_task("a", w_blue=1.0, w_red=1.0)
        g.add_task("b", w_blue=1.0, w_red=1.0)
        g.add_dependency("a", "b", size=5.0, comm=1.0)
        state = SchedulerState(g, Platform(1, 1, 2.0, 2.0))
        assert resolve_backend().best_est_batch(state, ["a"]) == [None]
        assert state.best_est("a") is None

    def test_breakdown_is_a_plain_tuple(self):
        memory = Platform(1, 1).memories()[0]
        bd = ESTBreakdown("t", memory, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0, 5.0)
        assert bd.duration == math.inf and bd.proc == -1
        assert bd.comm_fit == 0.0
        assert bd._replace(eft=6.0).eft == 6.0


class TestBatchParity:
    """The batch entry points return, at every step of a real run, the
    same breakdowns as the single-candidate path and as the from-scratch
    reference."""

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_batch_equals_scalar_along_a_run(self, platform):
        kernel = resolve_backend()
        state = SchedulerState(_graph_for(platform), platform)
        for ready in _walk(state):
            for memory in state.memories:
                batch = kernel.evaluate_class_batch(state, ready, memory)
                assert batch == [kernel.evaluate(state, t, memory)
                                 for t in ready]
            assert kernel.best_est_batch(state, ready) == \
                [state.best_est(t) for t in ready]

    @pytest.mark.parametrize("comm_policy", ["late", "eager"])
    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_batch_equals_fresh_along_a_run(self, platform, comm_policy):
        kernel = resolve_backend()
        state = SchedulerState(_graph_for(platform), platform,
                               comm_policy=comm_policy)
        steps = 0
        for ready in _walk(state):
            for memory in state.memories:
                assert kernel.evaluate_class_batch(state, ready, memory) == \
                    [kernel.evaluate_fresh(state, t, memory) for t in ready]
            steps += 1
        assert steps > 1

    def test_batch_fit_memo_coherent_with_scalar(self):
        """Batched earliest_fit results land in the shared (task, class)
        memo, so a later scalar evaluation reuses them verbatim."""
        graph = random_dag(size=30, rng=5)
        state = SchedulerState(graph, Platform(2, 2, 100.0, 100.0))
        kernel = resolve_backend()
        ready = list(state.ready_roots())
        memory = state.memories[0]
        batched = kernel.evaluate_class_batch(state, ready, memory)
        slot = state._fit[memory.index]
        assert slot[0] == state.mem[memory].version
        for task in ready:
            assert task in slot[1]
        assert batched == [kernel.evaluate(state, t, memory) for t in ready]

    def test_fit_memo_dropped_when_the_profile_moves(self):
        graph = random_dag(size=30, rng=5)
        state = SchedulerState(graph, Platform(1, 1, 100.0, 100.0))
        kernel = resolve_backend()
        ready = list(state.ready_roots())
        blue = state.memories[0]
        kernel.evaluate_class_batch(state, ready, blue)
        state.commit(kernel.evaluate(state, ready[0], blue))
        slot = state._fit[blue.index]
        assert ready[0] not in slot[1]
        stale_version = slot[0]
        assert stale_version != state.mem[blue].version
        rest = ready[1:]
        again = kernel.evaluate_class_batch(state, rest, blue)
        assert slot[0] == state.mem[blue].version
        assert again == [kernel.evaluate_fresh(state, t, blue) for t in rest]


class TestTieChains:
    """Engineered exact ties resolve to the operand the reference chains
    name, on the single-candidate path and on the batch path alike."""

    @pytest.mark.parametrize("speed, avail", [(2.0, 2.0), (4.0, 3.0)],
                             ids=["x2", "x4"])
    def test_hetero_finish_tie_prefers_later_avail(self, speed, avail):
        # w=4: max(0, 0) + 4 == max(0, avail) + 4/speed on both configs.
        # The chain keeps the later-available, faster processor (p1).
        g = TaskGraph("tie")
        g.add_task("a", w_blue=4.0, w_red=4.0)
        platform = Platform(2, 0, math.inf, math.inf, speeds=[1.0, speed])
        state = SchedulerState(g, platform)
        state.avail[1] = avail
        memory = state.memories[0]
        kernel = resolve_backend()
        bd = kernel.evaluate(state, "a", memory)
        assert bd.proc == 1
        assert bd.eft == 4.0
        assert kernel.evaluate_class_batch(state, ["a"], memory) == [bd]
        assert kernel.evaluate_fresh(state, "a", memory) == bd

    @pytest.mark.parametrize("entry", ["best_est", "best_est_batch"])
    def test_class_selection_eps_tie_keeps_first(self, entry):
        # Blue and red EFTs within EPS of each other: the §5.1 chain keeps
        # the earlier class either way round.
        g = TaskGraph("tie")
        g.add_task("a", w_blue=1.0, w_red=1.0 + 1e-10)
        g.add_task("b", w_blue=2.0, w_red=2.0 - 1e-10)
        state = SchedulerState(g, Platform(1, 1, math.inf, math.inf))
        ready = list(state.ready_roots())
        if entry == "best_est":
            got = [state.best_est(t) for t in ready]
        else:
            got = resolve_backend().best_est_batch(state, ready)
        assert all(bd.memory.index == 0 for bd in got)


class TestPerEventCommit:
    """``commit`` applies each memory event as its own ``add``: a profile's
    version advances once per event landing on it, and classes the commit
    never touches keep their version and their fit memo."""

    @staticmethod
    def _expected_events(state, bd):
        """Per-class count of the memory events ``commit(bd)`` applies."""
        graph = state.graph
        expected = [0] * state.platform.n_classes
        dest = bd.memory.index
        if graph.out_size(bd.task) > 0.0:
            expected[dest] += 1
        for parent in graph.parents(bd.task):
            if graph.size(parent, bd.task) <= 0.0:
                continue
            expected[dest] += 1
            src = state.schedule.placement(parent).memory.index
            if src != dest:
                expected[src] += 1
        return expected

    @pytest.mark.parametrize("comm_policy", ["late", "eager"])
    def test_version_advances_once_per_event(self, comm_policy):
        graph = random_dag(size=40, rng=7)
        state = SchedulerState(graph, Platform(2, 2, 150.0, 150.0),
                               comm_policy=comm_policy)
        ready = list(state.ready_roots())
        commits = 0
        while ready:
            bd = next(b for b in map(state.best_est, ready) if b is not None)
            expected = self._expected_events(state, bd)
            before = [state.mem[m].version for m in state.memories]
            state.commit(bd)
            after = [state.mem[m].version for m in state.memories]
            assert [a - b for a, b in zip(after, before)] == expected
            assert state.last_touched_classes == tuple(
                ci for ci, n in enumerate(expected) if n)
            ready = ([t for t in ready if t != bd.task]
                     + state.pop_newly_ready())
            commits += 1
        assert commits == len(list(graph.tasks()))

    def test_untouched_class_keeps_version_and_memo(self):
        g = TaskGraph("split")
        g.add_task("a", w_blue=1.0, w_red=9.0)
        g.add_task("b", w_blue=9.0, w_red=1.0)
        g.add_task("c", w_blue=1.0, w_red=1.0)
        g.add_dependency("a", "c", size=2.0, comm=1.0)
        state = SchedulerState(g, Platform(1, 1, 10.0, 10.0))
        blue, red = state.memories
        kernel = resolve_backend()
        on_red = kernel.evaluate(state, "b", red)
        red_version = state.mem[red].version
        state.commit(kernel.evaluate(state, "a", blue))
        assert state.last_touched_classes == (0,)
        assert state.mem[red].version == red_version
        assert state._fit[red.index][0] == red_version
        assert "b" in state._fit[red.index][1]
        assert kernel.evaluate(state, "b", red) == on_red


class TestEndToEndEquivalence:
    """Whole runs through the caching kernel and through the from-scratch
    reference commit byte-identical schedules."""

    @staticmethod
    def _fresh(monkeypatch):
        monkeypatch.setattr(state_mod, "resolve_backend", _FreshKernel)

    @pytest.mark.parametrize("fn", HEURISTICS, ids=lambda f: f.__name__)
    def test_three_class_runs_match_fresh(self, fn, monkeypatch):
        graph = _three_class_graph()
        platform = Platform([1, 1, 1], [60.0, math.inf, 40.0])
        a = fn(graph, platform)
        self._fresh(monkeypatch)
        b = fn(graph, platform)
        assert _snap(a, graph) == _snap(b, graph)
        assert a.meta["peaks"] == b.meta["peaks"]

    @pytest.mark.parametrize("comm_policy", ["late", "eager"])
    @pytest.mark.parametrize("fn", HEURISTICS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "naive"])
    def test_fresh_path_bit_identical(self, fn, lazy, comm_policy,
                                      monkeypatch):
        graph = random_dag(size=35, rng=9)
        base = heft(graph, Platform(1, 1))
        bound = 0.8 * max(base.meta["peak_blue"], base.meta["peak_red"])
        platform = Platform(1, 1).with_uniform_bound(bound)
        kwargs = dict(lazy=lazy, comm_policy=comm_policy)
        try:
            a = fn(graph, platform, **kwargs)
        except InfeasibleScheduleError:
            self._fresh(monkeypatch)
            with pytest.raises(InfeasibleScheduleError):
                fn(graph, platform, **kwargs)
            return
        self._fresh(monkeypatch)
        b = fn(graph, platform, **kwargs)
        assert _snap(a, graph) == _snap(b, graph)
        assert a.meta["peaks"] == b.meta["peaks"]


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=3, max_value=35),
       seed=st.integers(min_value=0, max_value=10**6),
       alpha=st.floats(min_value=0.3, max_value=1.5),
       procs=st.sampled_from([(1, 1), (2, 1), (1, 3), (2, 2)]),
       speed_pick=st.sampled_from([None, (1.0, 2.0, 0.5, 1.0, 4.0, 0.25)]))
def test_cached_kernel_equals_fresh_fuzzed(size, seed, alpha, procs,
                                           speed_pick):
    """Schedules through the caching kernel are byte-identical to
    schedules through the from-scratch reference across fuzzed graphs,
    platforms, processor speeds and memory bounds, on all three
    memory-aware heuristics."""
    graph = random_dag(size=size, rng=seed)
    n_procs = sum(procs)
    speeds = None if speed_pick is None else list(speed_pick[:n_procs])
    base = heft(graph, Platform(*procs))
    ref_peak = max(base.meta["peak_blue"], base.meta["peak_red"]) or 1.0
    caps = alpha * ref_peak
    platform = Platform(procs[0], procs[1], caps, caps, speeds=speeds)
    fresh = _FreshKernel()
    for fn in HEURISTICS:
        try:
            cached = fn(graph, platform)
        except InfeasibleScheduleError:
            cached = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(state_mod, "resolve_backend", lambda: fresh)
            if cached is None:
                with pytest.raises(InfeasibleScheduleError):
                    fn(graph, platform)
                continue
            got = fn(graph, platform)
        assert _snap(cached, graph) == _snap(got, graph)
        assert cached.meta["peaks"] == got.meta["peaks"]
