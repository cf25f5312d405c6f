"""Schedule extraction from ILP solution vectors.

No incumbent is given, so every schedule here comes from
:func:`~repro.ilp.extract_schedule` on HiGHS's solution vector."""

import pytest

from repro import Platform, validate_schedule
from repro.dags import dex, fork_join
from repro.ilp import build_model, solve_model


def solve_and_extract(graph, platform):
    sol = solve_model(build_model(graph, platform), time_limit=120)
    assert sol.status == "optimal"
    assert sol.schedule.meta["algorithm"] == "ilp"
    return sol.schedule


def test_extraction_round_trip_dex():
    g = dex()
    plat = Platform(1, 1, 5, 5)
    schedule = solve_and_extract(g, plat)
    validate_schedule(g, plat, schedule, eps=1e-4)
    assert schedule.makespan == pytest.approx(6.0, abs=1e-4)
    assert schedule.meta["objective"] == pytest.approx(6.0, abs=1e-4)


def test_extraction_assigns_distinct_processors():
    # Fork-join with 3 parallel equal tasks on 3 blue processors: the
    # optimum runs them simultaneously, so extraction must spread them.
    g = fork_join(3, w_blue=4, w_red=4, size=0, comm=0)
    plat = Platform(3, 1)
    schedule = solve_and_extract(g, plat)
    validate_schedule(g, plat, schedule, eps=1e-4)
    mids = [p for p in schedule.placements() if p.task in (0, 1, 2)]
    by_start = {}
    for p in mids:
        by_start.setdefault(round(p.start, 3), []).append(p)
    for group in by_start.values():
        procs = [p.proc for p in group]
        assert len(procs) == len(set(procs))


def test_cross_memory_comms_extracted():
    g = dex()
    plat = Platform(1, 1)
    schedule = solve_and_extract(g, plat)
    for u, v in g.edges():
        same = schedule.memory_of(u) is schedule.memory_of(v)
        assert (schedule.comm(u, v) is None) == same
