"""Cross-cutting behaviour of all four heuristics."""

import pytest

from repro import (
    InfeasibleScheduleError,
    Memory,
    Platform,
    get_scheduler,
    heft,
    memheft,
    memminmin,
    minmin,
    validate_schedule,
)
from repro.core.bounds import lower_bound
from repro.dags import chain, dex, fork_join, random_dag

ALL = ("heft", "minmin", "memheft", "memminmin")
MEM_AWARE = ("memheft", "memminmin")


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("procs", [(1, 1), (3, 1), (2, 2)])
def test_every_schedule_is_valid(name, seed, procs):
    g = random_dag(size=25, rng=seed)
    plat = Platform(*procs)
    s = get_scheduler(name)(g, plat)
    peaks = validate_schedule(g, plat, s)
    # Invariant 5: scheduler-side accounting == independent replay.
    assert peaks[Memory.BLUE] == pytest.approx(s.meta["peak_blue"])
    assert peaks[Memory.RED] == pytest.approx(s.meta["peak_red"])
    assert s.makespan >= lower_bound(g, plat) - 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_memory_aware_equals_baseline_with_infinite_memory(seed):
    """Invariant 2 (§6.2.1): MemHEFT == HEFT and MemMinMin == MinMin when
    the memory bounds exceed what the baselines need."""
    g = random_dag(size=25, rng=seed)
    plat = Platform(1, 1)
    for base_fn, mem_fn in ((heft, memheft), (minmin, memminmin)):
        base = base_fn(g, plat)
        ample = plat.with_bounds(base.meta["peak_blue"], base.meta["peak_red"])
        mem = mem_fn(g, ample)
        assert mem.makespan == pytest.approx(base.makespan)
        for t in g.tasks():
            assert mem.placement(t).memory is base.placement(t).memory
            assert mem.placement(t).start == pytest.approx(base.placement(t).start)


@pytest.mark.parametrize("name", MEM_AWARE)
def test_memory_bounds_always_respected(name, small_random_graph):
    g = small_random_graph
    base = heft(g, Platform(1, 1))
    ref = max(base.meta["peak_blue"], base.meta["peak_red"])
    for alpha in (0.4, 0.6, 0.8, 1.0):
        plat = Platform(1, 1).with_uniform_bound(alpha * ref)
        try:
            s = get_scheduler(name)(g, plat)
        except InfeasibleScheduleError:
            continue
        peaks = validate_schedule(g, plat, s)
        assert peaks[Memory.BLUE] <= plat.mem_blue + 1e-9
        assert peaks[Memory.RED] <= plat.mem_red + 1e-9


@pytest.mark.parametrize("name", MEM_AWARE)
def test_success_is_monotone_in_memory(name, small_random_graph):
    """Invariant 6 (statistical form): once feasible, more memory stays
    feasible on the swept grid."""
    g = small_random_graph
    base = heft(g, Platform(1, 1))
    ref = max(base.meta["peak_blue"], base.meta["peak_red"])
    feasible = []
    for alpha in (0.3, 0.45, 0.6, 0.75, 0.9, 1.0):
        plat = Platform(1, 1).with_uniform_bound(alpha * ref)
        try:
            get_scheduler(name)(g, plat)
            feasible.append(True)
        except InfeasibleScheduleError:
            feasible.append(False)
    # No True followed by False.
    first_true = feasible.index(True) if True in feasible else len(feasible)
    assert all(feasible[first_true:]), feasible


@pytest.mark.parametrize("name", MEM_AWARE)
def test_infeasible_bounds_raise(name):
    g = dex()  # MemReq(T3) = 4
    plat = Platform(1, 1, 3, 3)
    with pytest.raises(InfeasibleScheduleError):
        get_scheduler(name)(g, plat)


@pytest.mark.parametrize("name", ALL)
def test_single_resource_class_platforms(name):
    g = random_dag(size=12, rng=9)
    for plat in (Platform(n_blue=2, n_red=0), Platform(n_blue=0, n_red=2)):
        s = get_scheduler(name)(g, plat)
        validate_schedule(g, plat, s)
        want = Memory.BLUE if plat.n_red == 0 else Memory.RED
        assert all(p.memory is want for p in s.placements())


@pytest.mark.parametrize("name", ALL)
def test_chain_serialises(name):
    g = chain(6, w_blue=2, w_red=1)
    s = get_scheduler(name)(g, Platform(2, 2))
    # A chain cannot be parallelised: tasks run back to back on red.
    assert s.makespan >= 6


@pytest.mark.parametrize("name", ALL)
def test_fork_join_uses_both_resources(name):
    g = fork_join(8, w_blue=5, w_red=5, size=0, comm=0)
    s = get_scheduler(name)(g, Platform(2, 2))
    validate_schedule(g, Platform(2, 2), s)
    used = {p.memory for p in s.placements()}
    assert used == {Memory.BLUE, Memory.RED}
    # 8 equal tasks on 4 procs between src and sink: 5 + 10 + 5.
    assert s.makespan == pytest.approx(20)


@pytest.mark.parametrize("name", ALL)
def test_zero_time_tasks_handled(name):
    """Fictitious pipeline tasks (W=0) must schedule cleanly."""
    from repro import TaskGraph
    g = TaskGraph()
    g.add_task("a", 2, 1)
    g.add_task("null", 0, 0)
    g.add_task("b", 2, 1)
    g.add_dependency("a", "null", size=1, comm=1)
    g.add_dependency("null", "b", size=1, comm=1)
    plat = Platform(1, 1)
    s = get_scheduler(name)(g, plat)
    validate_schedule(g, plat, s)


def test_meta_records_algorithm_name():
    g = dex()
    plat = Platform(1, 1)
    assert heft(g, plat).meta["algorithm"] == "heft"
    assert minmin(g, plat).meta["algorithm"] == "minmin"
    assert memheft(g, plat).meta["algorithm"] == "memheft"
    assert memminmin(g, plat).meta["algorithm"] == "memminmin"


def test_registry_lookup():
    assert get_scheduler("MemHEFT") is memheft
    with pytest.raises(ValueError, match="unknown scheduler"):
        get_scheduler("nope")


def test_heuristics_favour_faster_resource():
    # Everything is 10x faster on red and files are free: all tasks land red.
    g = chain(5, w_blue=10, w_red=1, size=0, comm=0)
    for name in ALL:
        s = get_scheduler(name)(g, Platform(2, 2))
        assert all(p.memory is Memory.RED for p in s.placements())
