"""``SchedulerState.adopt``: record a placement whose memory and processor
effects the state already holds (an online session's checkpoint)."""

import pytest

from repro import Memory, Platform
from repro.core.graph import TaskGraph
from repro.scheduling.state import SchedulerState

PLATFORM = Platform(n_blue=2, n_red=1, mem_blue=40.0, mem_red=40.0)


def fork():
    """``p`` feeds ``c`` (size 3) and ``d`` (size 2); ``e`` needs
    ``c`` and ``d``."""
    g = TaskGraph("fork")
    for t, times in {"p": (2.0, 3.0), "c": (4.0, 1.0), "d": (1.0, 2.0),
                     "e": (1.0, 1.0)}.items():
        g.add_task(t, times=times)
    g.add_dependency("p", "c", size=3.0, comm=2.0)
    g.add_dependency("p", "d", size=2.0, comm=1.0)
    g.add_dependency("c", "e", size=1.0, comm=1.0)
    g.add_dependency("d", "e", size=1.0, comm=1.0)
    return g


def profiles(state):
    return {m: list(p.segments()) for m, p in state.mem.items()}


def placed(state, task, memory=Memory.BLUE):
    """Commit ``task`` on ``memory``; returns its placement."""
    return state.commit(state.est(task, memory))


class TestAdopt:
    def test_no_memory_or_avail_effect(self):
        source = SchedulerState(fork(), PLATFORM)
        placement = placed(source, "p")
        state = SchedulerState(fork(), PLATFORM)
        before = (profiles(state), [p.version for p in state.mem.values()],
                  list(state.avail), list(state.avail.mins),
                  state.eval_counts())
        state.adopt(placement)
        after = (profiles(state), [p.version for p in state.mem.values()],
                 list(state.avail), list(state.avail.mins),
                 state.eval_counts())
        assert after == before
        assert state.schedule.placement("p") == placement
        assert state.n_scheduled == 1

    def test_children_become_ready_as_on_commit(self):
        committed = SchedulerState(fork(), PLATFORM)
        placement = placed(committed, "p")
        adopted = SchedulerState(fork(), PLATFORM)
        adopted.adopt(placement)
        assert adopted.pop_newly_ready() == committed.pop_newly_ready() \
            == ["c", "d"]
        for t in ("p", "c", "d", "e"):
            assert adopted.is_ready(t) == committed.is_ready(t)
        # e waits for both c and d, whichever way they were placed.
        adopted.adopt(placed(committed, "c"))
        assert adopted.pop_newly_ready() == committed.pop_newly_ready() == []
        assert not adopted.is_ready("e")

    def test_rejects_an_already_placed_task(self):
        state = SchedulerState(fork(), PLATFORM)
        placement = placed(state, "p")
        with pytest.raises(ValueError, match="already placed"):
            state.adopt(placement)
        other = SchedulerState(fork(), PLATFORM)
        other.adopt(placement)
        with pytest.raises(ValueError, match="already placed"):
            other.adopt(placement)

    def test_adopted_task_leaves_the_memo(self):
        """A task evaluated and then adopted is no longer a candidate: the
        kernel's memo must not serve its old breakdown."""
        source = SchedulerState(fork(), PLATFORM)
        placement = placed(source, "p")
        state = SchedulerState(fork(), PLATFORM)
        assert state.est("p", Memory.BLUE).feasible
        state.adopt(placement)
        assert all("p" not in memo for memo in state._est_memo)
        assert not state.est("p", Memory.BLUE).feasible

    @pytest.mark.parametrize("child_memory", [Memory.BLUE, Memory.RED])
    @pytest.mark.parametrize("comm_policy", ["late", "eager"])
    def test_adopt_then_commit_equals_committing_both(self, child_memory,
                                                      comm_policy):
        """On a base holding the parent's effects, adopt(parent) +
        commit(child) lands the same profiles, avail and placements as
        committing both — same-memory and cross-memory inputs alike."""
        full = SchedulerState(fork(), PLATFORM, comm_policy=comm_policy)
        parent = placed(full, "p")
        base = SchedulerState(fork(), PLATFORM, comm_policy=comm_policy)
        assert placed(base, "p") == parent
        base_avail = list(full.avail)
        child = full.commit(full.est("c", child_memory))

        state = SchedulerState(fork(), PLATFORM, comm_policy=comm_policy)
        state.mem = base.mem
        for proc, a in enumerate(base_avail):
            state.avail[proc] = a
        state.adopt(parent)
        breakdown = state.est("c", child_memory)
        assert state.commit(breakdown) == child
        assert profiles(state) == profiles(full)
        assert list(state.avail) == list(full.avail)
        assert (state.schedule.comm("p", "c")
                == full.schedule.comm("p", "c"))
