"""The one select→commit loop (:mod:`repro.scheduling.driver`): exact
infeasibility messages on every path, observed naive runs, and the
release-floor clamp."""

import pytest

from repro import Platform, memheft, memminmin, memsufferage, obs
from repro.dags import random_dag
from repro.online import OnlineSession
from repro.scheduling.candidates import MinEFTSelector, ScanSelector, min_eft
from repro.scheduling.driver import drive
from repro.scheduling.state import InfeasibleScheduleError, SchedulerState

from .scan_reference import REFERENCES

ALGOS = {"memheft": memheft, "memminmin": memminmin,
         "memsufferage": memsufferage}

#: Every heuristic through its reference rescan.
SCANS = REFERENCES

#: Recorded before the loops were merged; service 422 bodies carry them
#: verbatim, so they must not move.
MESSAGES = {
    "memheft": "MemHEFT: no remaining task fits within the memory bounds "
               "(26 tasks left, capacities=[20.0, 20.0])",
    "memminmin": "MemMinMin: no available task fits within the memory "
                 "bounds (2 available, capacities=[20.0, 20.0])",
    "memsufferage": "MemSufferage: no available task fits within the memory "
                    "bounds (2 available, capacities=[20.0, 20.0])",
}


def _tight():
    return random_dag(size=30, rng=5), Platform(2, 1).with_uniform_bound(20.0)


def _key(schedule):
    return ([(p.task, p.proc, p.memory, p.start, p.finish)
             for p in schedule.placements()], schedule.meta)


@pytest.mark.parametrize("algos", [ALGOS, SCANS], ids=["default", "scan"])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_infeasibility_message_is_exact(name, algos):
    graph, platform = _tight()
    with pytest.raises(InfeasibleScheduleError) as info:
        algos[name](graph, platform)
    assert str(info.value) == MESSAGES[name]


def test_online_infeasibility_message_counts_the_whole_round():
    """A replan round drives up to its fold point, then the rest; the
    message counts the tasks left in the whole round."""
    graph = random_dag(size=30, rng=5)
    session = OnlineSession(Platform(2, 1).with_uniform_bound(45.0),
                            algorithm="memheft", policy="replan:4")
    session.submit(graph, release=0.0)
    with pytest.raises(InfeasibleScheduleError) as info:
        session.flush()
    assert str(info.value) == (
        "online memheft: no pending task fits within the memory bounds "
        "(20 tasks left, capacities=[45.0, 45.0])")


@pytest.mark.parametrize("name", sorted(ALGOS))
def test_naive_path_is_observed_and_bit_identical(name):
    graph = random_dag(size=40, rng=2)
    platform = Platform(2, 1).with_uniform_bound(120.0)
    plain = SCANS[name](graph, platform)
    with obs.observing() as state:
        observed = SCANS[name](graph, platform)
    assert _key(observed) == _key(plain)
    snap = state.registry.snapshot()
    alg = (("algorithm", name),)
    assert snap[("memsched_schedule_runs_total", alg)] == 1
    assert snap[("memsched_commits_total", alg)] == graph.n_tasks


@pytest.mark.parametrize("selector", ["lazy", "scan"])
@pytest.mark.parametrize("floor", [0.0, 7.5, 250.0])
def test_floor_clamps_every_start(selector, floor):
    graph = random_dag(size=25, rng=4)
    state = SchedulerState(graph, Platform(2, 1))
    index = {t: k for k, t in enumerate(graph.topological_order())}
    if selector == "lazy":
        sel = MinEFTSelector(state, index)
    else:
        sel = ScanSelector(state, index, min_eft)
    for task in state.ready_roots():
        sel.push(task)
    record = []
    drive(state, sel, graph.n_tasks, str, floor=floor, record=record)
    assert state.done
    assert len(record) == graph.n_tasks
    starts = [p.start for p in state.schedule.placements()]
    assert min(starts) >= floor
    if floor == 0.0:
        # Offline, the floor is the identity.
        assert _key(state.finalize("memminmin")) == \
            _key(memminmin(graph, Platform(2, 1)))
