"""Every concrete number the paper derives on its worked example, end to end.

These tests tie the implementation to the text of the report:

* §3.1 — schedule ``s1`` (Figure 3) is valid with makespan 6;
* §3.2 — the memory-usage values of ``s1`` (RedMemUsed(T1)=3,
  BlueMemUsed(T2)=2, RedMemUsed(T3)=5, RedMemUsed(T4)=3) and
  MemReq(T3)=4;
* §3.3 — peaks (2 blue, 5 red); under M=5 schedule s1 is optimal
  (makespan 6); under M=4 the optimum is s2's makespan 7 — the
  memory/makespan trade-off;
* §5.1 — the upward-rank formula;
* §6.2.1 — at alpha=1 the memory-aware heuristics reproduce HEFT.
"""

import pytest

from repro import (
    CommEvent,
    InfeasibleScheduleError,
    Memory,
    Placement,
    Platform,
    Schedule,
    memheft,
    memminmin,
    validate_schedule,
)
from repro.core.validation import memory_usage
from repro.dags import dex
from repro.ilp import solve_ilp
from repro.scheduling import upward_ranks

from .scheduling.eager_search import optimal_eager


def build_s1(platform):
    s = Schedule(platform)
    s.add(Placement("T1", proc=1, memory=Memory.RED, start=0, finish=1))
    s.add(Placement("T3", proc=1, memory=Memory.RED, start=1, finish=4))
    s.add(Placement("T2", proc=0, memory=Memory.BLUE, start=2, finish=4))
    s.add(Placement("T4", proc=1, memory=Memory.RED, start=5, finish=6))
    s.add_comm(CommEvent("T1", "T2", start=1, finish=2))
    s.add_comm(CommEvent("T2", "T4", start=4, finish=5))
    return s


class TestSection3:
    def test_s1_valid_with_makespan_6(self):
        g, plat = dex(), Platform(1, 1)
        s1 = build_s1(plat)
        validate_schedule(g, plat, s1)
        assert s1.makespan == 6

    def test_s1_memory_usage_during_each_task(self):
        g, plat = dex(), Platform(1, 1)
        usage = memory_usage(g, plat, build_s1(plat))
        red, blue = usage[Memory.RED], usage[Memory.BLUE]
        # RedMemUsed(T1) = F(1,2) + F(1,3) = 3 while T1 runs.
        assert red.peak_in(0, 1) == 3
        # RedMemUsed(T3) = F(1,2) + F(1,3) + F(3,4) = 5 (comm (1,2) ongoing).
        assert red.peak_in(1, 2) == 5
        # BlueMemUsed(T2) = F(1,2) + F(2,4) = 2.
        assert blue.peak_in(2, 4) == 2
        # RedMemUsed(T4) = F(2,4) + F(3,4) = 3.
        assert red.peak_in(5, 6) == 3

    def test_s1_peaks_match_section_3_3(self):
        g, plat = dex(), Platform(1, 1)
        peaks = validate_schedule(g, plat, build_s1(plat))
        assert peaks[Memory.BLUE] == 2
        assert peaks[Memory.RED] == 5

    def test_mem_req_t3(self):
        assert dex().mem_req("T3") == 4


class TestSection33TradeOff:
    """M=5: optimum 6 (s1).  M=4: optimum 7 (s2).  M=3: nothing."""

    def test_optimum_under_m5_is_6(self):
        sol = solve_ilp(dex(), Platform(1, 1, 5, 5), time_limit=120)
        assert sol.status == "optimal"
        assert sol.makespan == pytest.approx(6.0, abs=1e-4)

    def test_optimum_under_m4_is_7(self):
        sol = solve_ilp(dex(), Platform(1, 1, 4, 4), time_limit=120)
        assert sol.status == "optimal"
        assert sol.makespan == pytest.approx(7.0, abs=1e-4)

    def test_m3_has_no_schedule(self):
        sol = solve_ilp(dex(), Platform(1, 1, 3, 3), time_limit=120)
        assert sol.status == "infeasible"

    def test_eager_search_agrees(self):
        assert optimal_eager(dex(), Platform(1, 1, 5, 5)).makespan == 6
        assert optimal_eager(dex(), Platform(1, 1, 4, 4)).makespan == 7
        assert not optimal_eager(dex(), Platform(1, 1, 3, 3)).feasible


class TestSection5:
    def test_upward_rank_formula(self):
        ranks = upward_ranks(dex())
        assert ranks == {"T4": 1.0, "T2": 3.5, "T3": 6.0, "T1": 8.5}

    def test_memheft_matches_optimum_at_m5(self):
        s = memheft(dex(), Platform(1, 1, 5, 5))
        assert s.makespan == 6

    def test_heuristics_fail_exactly_like_the_model_at_m3(self):
        for algo in (memheft, memminmin):
            with pytest.raises(InfeasibleScheduleError):
                algo(dex(), Platform(1, 1, 3, 3))


class TestSection62:
    def test_alpha_one_reproduces_heft_on_dex(self):
        from repro.scheduling import heft
        g = dex()
        base = heft(g, Platform(1, 1))
        plat = Platform(1, 1).with_bounds(base.meta["peak_blue"],
                                          base.meta["peak_red"])
        assert memheft(g, plat).makespan == base.makespan
