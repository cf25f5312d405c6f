"""The records the hot path builds with ``tuple.__new__`` (the kernel's
:class:`ESTBreakdown`, :meth:`SchedulerState.commit`'s
:class:`Placement` and :class:`CommEvent`, :func:`drive`'s recorded
breakdowns) are the same values a keyword call builds: same type,
fields, properties, ``_replace``/``_asdict``, ``repr``, equality and
pickling.  A recorded breakdown still replays its decision verbatim on a
fresh state, as an online session's replay does."""

import pickle

import pytest

from repro import Platform
from repro.core.graph import TaskGraph
from repro.core.platform import Memory
from repro.core.schedule import CommEvent, Placement
from repro.dags import random_dag
from repro.io.json_io import schedule_to_dict
from repro.scheduling.driver import drive, make_selector
from repro.scheduling.kernel import ESTBreakdown
from repro.scheduling.state import SchedulerState


def _chain() -> TaskGraph:
    """``a -> b`` where ``a`` is fast on blue and ``b`` on red, so the
    edge becomes a cross-memory transfer."""
    g = TaskGraph("chain")
    g.add_task("a", w_blue=1.0, w_red=50.0)
    g.add_task("b", w_blue=50.0, w_red=1.5)
    g.add_dependency("a", "b", size=2.0, comm=0.75)
    return g


def _check_record(rec, cls) -> None:
    assert type(rec) is cls
    assert rec._fields == cls._fields
    for i, name in enumerate(cls._fields):
        assert getattr(rec, name) is rec[i]
    keyword = cls(**dict(zip(cls._fields, rec)))
    assert rec == keyword and type(keyword) is cls
    assert repr(rec) == repr(keyword)
    assert hash(rec) == hash(keyword)
    assert rec._asdict() == keyword._asdict()
    assert rec._replace() == rec
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is cls


@pytest.fixture
def committed():
    """A two-task state committed through the kernel: ``(breakdowns,
    placements, state)``."""
    state = SchedulerState(_chain(), Platform(1, 1, 10.0, 10.0))
    breakdowns, placements = [], []
    for task in ("a", "b"):
        bd = state.best_est(task)
        breakdowns.append(bd)
        placements.append(state.commit(bd))
    return breakdowns, placements, state


def test_kernel_breakdowns(committed):
    breakdowns, _, state = committed
    a, b = breakdowns
    assert (a.memory, b.memory) == (Memory.BLUE, Memory.RED)
    for bd in breakdowns:
        _check_record(bd, ESTBreakdown)
        assert bd.feasible
    assert b.precedence == 1.0 + 0.75 and b.cmax == 0.75
    assert b.eft == b.est + b.duration
    # drive's release-floor clamp.
    clamped = b._replace(est=9.0, eft=9.0 + b.duration)
    assert type(clamped) is ESTBreakdown
    assert clamped[:7] == b[:7] and clamped[9:] == b[9:]
    assert (clamped.est, clamped.eft) == (9.0, 10.5)


def test_commit_placements_and_comm_events(committed):
    _, placements, state = committed
    for placement in placements:
        _check_record(placement, Placement)
        assert state.schedule.placement(placement.task) is placement
    a, b = placements
    assert (a.cls, b.cls) == (0, 1)
    assert a.duration == 1.0 and b.duration == 1.5
    assert not a.overlaps(b)
    event = state.schedule.comm("a", "b")
    _check_record(event, CommEvent)
    assert event == CommEvent(src="a", dst="b", start=1.0, finish=1.75)
    assert event.duration == 0.75


@pytest.mark.parametrize("policy", ["late", "eager"])
@pytest.mark.parametrize("floor", [0.0, 7.5])
@pytest.mark.parametrize("algorithm", ["memheft", "memminmin",
                                       "memsufferage"])
def test_drive_records_replay_verbatim(algorithm, floor, policy):
    graph = random_dag(size=25, rng=4)
    platform = Platform([2, 2], [60.0, 60.0], speeds=[1.0, 1.0, 1.5, 0.5])
    state = SchedulerState(graph, platform, comm_policy=policy)
    positions = {t: k for k, t in enumerate(graph.topological_order())}
    selector = make_selector(algorithm, state, positions)
    for task in state.ready_roots():
        selector.push(task)
    record = []
    drive(state, selector, graph.n_tasks, str, floor=floor, record=record)
    placed = list(state.schedule.placements())
    assert len(record) == len(placed)
    for rec, placement in zip(record, placed):
        _check_record(rec, ESTBreakdown)
        assert (rec.task, rec.memory, rec.est, rec.proc) == (
            placement.task, placement.memory, placement.start,
            placement.proc)
    assert record == pickle.loads(pickle.dumps(record))

    fresh = SchedulerState(graph, platform, comm_policy=policy)
    for rec in record:
        fresh.commit(rec)
    assert fresh.eval_counts() == {"n_full_evals": 0, "n_refreshes": 0,
                                   "n_reused": 0}
    assert (schedule_to_dict(fresh.finalize(algorithm))
            == schedule_to_dict(state.finalize(algorithm)))
    for m in fresh.memories:
        assert fresh.mem[m]._xs == state.mem[m]._xs
        assert fresh.mem[m]._vals == state.mem[m]._vals
