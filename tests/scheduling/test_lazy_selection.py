"""Every heuristic must commit bit-identical schedules to its reference
selection (``scan_reference``): MemMinMin's lazy candidate heap against
the full rescan ``ScanSelector(…, min_eft)``, MemHEFT's and
MemSufferage's ordered ready list against a rescan that sorts the ready
set on every step — across randomized graphs, platforms and memory
bounds, including infeasibility verdicts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Platform, heft
from repro.dags import dex, random_dag
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import InfeasibleScheduleError
from repro.scheduling.sufferage import memsufferage

from .scan_reference import reference

HEURISTICS = (memheft, memminmin, memsufferage)


def _assert_same_outcome(fn, graph, platform, **kwargs):
    """Run the heuristic and its reference; both must agree
    placement-for-placement (or both raise)."""
    try:
        lazy = fn(graph, platform, **kwargs)
    except InfeasibleScheduleError:
        with pytest.raises(InfeasibleScheduleError):
            reference(fn)(graph, platform, **kwargs)
        return None
    scan = reference(fn)(graph, platform, **kwargs)
    assert lazy.makespan == scan.makespan
    for task in graph.tasks():
        pl, ps = lazy.placement(task), scan.placement(task)
        assert (pl.proc, pl.memory, pl.start, pl.finish) == \
               (ps.proc, ps.memory, ps.start, ps.finish), \
            f"{fn.__name__} diverged on {task!r}"
    assert lazy.meta["peaks"] == scan.meta["peaks"]
    return lazy


@pytest.mark.parametrize("fn", HEURISTICS, ids=lambda f: f.__name__)
def test_dex_unbounded_and_tight(fn):
    for platform in (Platform(1, 1), Platform(1, 1, 5, 5),
                     Platform(1, 1, 4, 4), Platform(1, 1, 3, 3)):
        _assert_same_outcome(fn, dex(), platform)


@settings(max_examples=20, deadline=None)
@given(size=st.integers(min_value=3, max_value=40),
       seed=st.integers(min_value=0, max_value=10**6),
       alpha=st.floats(min_value=0.3, max_value=1.2),
       procs=st.sampled_from([(1, 1), (2, 1), (1, 3)]))
def test_lazy_equals_naive_on_random_daggen(size, seed, alpha, procs):
    graph = random_dag(size=size, rng=seed)
    base = heft(graph, Platform(*procs))
    ref_peak = max(base.meta["peak_blue"], base.meta["peak_red"]) or 1.0
    bounded = Platform(*procs).with_uniform_bound(alpha * ref_peak)
    for fn in HEURISTICS:
        _assert_same_outcome(fn, graph, bounded)


@pytest.mark.parametrize("fn", HEURISTICS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", range(3))
def test_lazy_equals_naive_unbounded(fn, seed):
    graph = random_dag(size=30, rng=seed)
    schedule = _assert_same_outcome(fn, graph, Platform(2, 2))
    assert schedule is not None and len(schedule) == 30


@pytest.mark.parametrize("fn", (memheft, memminmin), ids=lambda f: f.__name__)
def test_lazy_equals_naive_eager_policy(fn):
    graph = random_dag(size=25, rng=7)
    base = heft(graph, Platform(1, 1))
    bound = 0.7 * max(base.meta["peak_blue"], base.meta["peak_red"])
    _assert_same_outcome(fn, graph, Platform(1, 1).with_uniform_bound(bound),
                         comm_policy="eager")


@pytest.mark.parametrize("seed", range(2))
def test_lazy_equals_naive_three_classes(seed):
    from repro._util import as_rng
    from repro.core.graph import TaskGraph
    gen = as_rng(seed)
    g = TaskGraph(f"tri{seed}", n_classes=3)
    n = 18
    for k in range(n):
        g.add_task(k, times=[float(gen.integers(1, 20)) for _ in range(3)])
    for i in range(n):
        for j in range(i + 1, n):
            if gen.random() < 0.3:
                g.add_dependency(i, j, size=float(gen.integers(1, 8)),
                                 comm=float(gen.integers(1, 5)))
    for fn in HEURISTICS:
        _assert_same_outcome(fn, g, Platform([1, 1, 1], [math.inf] * 3))
        _assert_same_outcome(fn, g, Platform([1, 1, 1], [30.0] * 3))


@pytest.mark.parametrize("seed", range(3))
def test_selector_lower_bound_matches_breakdown_bound(seed):
    """MinEFTSelector's cached lower bound must equal the memory-free
    bound ``min_c max(min(avail_c), precedence_c) + W^(c)/fastest(c)``
    computed from the state's breakdowns, and actually bound the exact
    best-class EFT from below at every step."""
    from repro.scheduling.candidates import MinEFTSelector
    from repro.scheduling.state import SchedulerState

    graph = random_dag(size=25, rng=seed)
    base = heft(graph, Platform(1, 1))
    bound = 0.8 * max(base.meta["peak_blue"], base.meta["peak_red"])
    platform = Platform(1, 1).with_uniform_bound(bound)
    state = SchedulerState(graph, platform)
    fastest = [max(platform.speeds[p] for p in platform.procs(m))
               for m in state.memories]
    index = {t: k for k, t in enumerate(graph.topological_order())}
    selector = MinEFTSelector(state, index)
    for task in graph.roots():
        selector.push(task)
    while len(selector):
        resources = list(state.avail.mins)
        for task, entry in selector._live.items():
            cached = selector._lower_bound(entry, resources)
            assert cached == min(
                max(resources[ci], state.est(task, m).precedence)
                + graph.w(task, m) / fastest[ci]
                for ci, m in enumerate(state.memories))
            best = state.best_est(task)
            if best is not None:
                assert cached <= best.eft + 1e-12
        best = selector.select()
        if best is None:
            break
        state.commit(best)
        selector.remove(best.task)
        for task in state.pop_newly_ready():
            selector.push(task)


def test_memheft_seeded_tiebreak_matches(fn=memheft):
    graph = random_dag(size=20, rng=3)
    for rng in (0, 1, 2):
        a = fn(graph, Platform(1, 1), rng=rng)
        b = reference(fn)(graph, Platform(1, 1), rng=rng)
        assert a.makespan == b.makespan
        for task in graph.tasks():
            assert a.placement(task).start == b.placement(task).start
