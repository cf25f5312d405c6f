"""Unit tests for the schedule container."""

import math

import pytest

from repro import CommEvent, Memory, Placement, Platform, Schedule


def make_schedule():
    plat = Platform(n_blue=2, n_red=1)
    s = Schedule(plat)
    s.add(Placement("a", proc=0, memory=Memory.BLUE, start=0, finish=3))
    s.add(Placement("b", proc=2, memory=Memory.RED, start=4, finish=6))
    s.add_comm(CommEvent("a", "b", start=3, finish=4))
    return s


class TestConstruction:
    def test_basic_lookup(self):
        s = make_schedule()
        assert s.placement("a").proc == 0
        assert s.memory_of("b") is Memory.RED
        assert s.start("b") == 4 and s.finish("b") == 6
        assert "a" in s and "z" not in s
        assert len(s) == 2

    def test_duplicate_placement_rejected(self):
        s = make_schedule()
        with pytest.raises(ValueError, match="already placed"):
            s.add(Placement("a", proc=1, memory=Memory.BLUE, start=0, finish=1))

    def test_proc_out_of_range_rejected(self):
        s = make_schedule()
        with pytest.raises(ValueError):
            s.add(Placement("c", proc=9, memory=Memory.BLUE, start=0, finish=1))

    def test_memory_proc_mismatch_rejected(self):
        s = make_schedule()
        with pytest.raises(ValueError, match="not attached"):
            s.add(Placement("c", proc=0, memory=Memory.RED, start=0, finish=1))

    def test_negative_start_rejected(self):
        s = make_schedule()
        with pytest.raises(ValueError):
            s.add(Placement("c", proc=1, memory=Memory.BLUE, start=-1, finish=1))

    def test_inverted_window_rejected(self):
        s = make_schedule()
        with pytest.raises(ValueError):
            s.add(Placement("c", proc=1, memory=Memory.BLUE, start=5, finish=4))

    @pytest.mark.parametrize("start, finish", [
        (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
        (0.0, math.inf), (math.inf, math.inf), (-math.inf, 1.0)])
    def test_non_finite_window_rejected(self, start, finish):
        s = make_schedule()
        with pytest.raises(ValueError, match="invalid execution window"):
            s.add(Placement("c", proc=1, memory=Memory.BLUE, start=start,
                            finish=finish))
        assert "c" not in s

    @pytest.mark.parametrize("start, finish", [
        (math.nan, 4.0), (3.0, math.nan), (-1.0, 4.0), (4.0, 3.0),
        (3.0, math.inf)])
    def test_bad_comm_window_rejected(self, start, finish):
        s = make_schedule()
        with pytest.raises(ValueError, match="invalid communication window"):
            s.add_comm(CommEvent("b", "a", start=start, finish=finish))
        assert s.comm("b", "a") is None

    def test_zero_length_and_negative_zero_windows_accepted(self):
        s = make_schedule()
        s.add(Placement("c", proc=1, memory=Memory.BLUE, start=-0.0,
                        finish=0.0))
        s.add_comm(CommEvent("b", "c", start=6.0, finish=6.0))
        assert s.finish("c") == 0.0

    def test_duplicate_comm_rejected(self):
        s = make_schedule()
        with pytest.raises(ValueError, match="already scheduled"):
            s.add_comm(CommEvent("a", "b", start=3, finish=4))


class TestQueries:
    def test_makespan(self):
        assert make_schedule().makespan == 6
        assert Schedule(Platform(1, 1)).makespan == 0

    def test_tasks_on_proc_sorted_by_start(self):
        plat = Platform(1, 1)
        s = Schedule(plat)
        s.add(Placement("late", proc=0, memory=Memory.BLUE, start=5, finish=6))
        s.add(Placement("early", proc=0, memory=Memory.BLUE, start=0, finish=2))
        assert [p.task for p in s.tasks_on_proc(0)] == ["early", "late"]

    def test_tasks_on_memory(self):
        s = make_schedule()
        assert [p.task for p in s.tasks_on_memory(Memory.BLUE)] == ["a"]
        assert [p.task for p in s.tasks_on_memory(Memory.RED)] == ["b"]

    def test_comm_lookup(self):
        s = make_schedule()
        assert s.comm("a", "b").duration == 1
        assert s.comm("b", "a") is None
        assert s.n_comms == 1

    def test_proc_busy_time(self):
        s = make_schedule()
        assert s.proc_busy_time(0) == 3
        assert s.proc_busy_time(1) == 0

    def test_placement_overlap_predicate(self):
        a = Placement("a", 0, Memory.BLUE, 0, 3)
        b = Placement("b", 0, Memory.BLUE, 2, 5)
        c = Placement("c", 0, Memory.BLUE, 3, 4)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # touching windows do not overlap

    def test_copy_independent(self):
        s = make_schedule()
        clone = s.copy()
        clone.add(Placement("c", proc=1, memory=Memory.BLUE, start=0, finish=1))
        clone.meta["x"] = 1
        assert "c" not in s
        assert "x" not in s.meta
        assert clone.makespan == s.makespan
