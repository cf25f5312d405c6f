"""The EST machinery and commit bookkeeping of §5.1, step by step on Dex."""

import math

import pytest

from repro import Memory, Platform
from repro.dags import dex
from repro.scheduling.state import SchedulerState


def fresh_state(mem_blue=math.inf, mem_red=math.inf, n_blue=1, n_red=1, **kw):
    return SchedulerState(dex(), Platform(n_blue, n_red, mem_blue, mem_red), **kw)


class TestReadiness:
    def test_only_roots_ready_initially(self):
        st = fresh_state()
        assert st.is_ready("T1")
        assert not st.is_ready("T2")
        assert not st.is_ready("T4")

    def test_commit_unlocks_children(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))
        assert st.is_ready("T2") and st.is_ready("T3")
        assert not st.is_ready("T4")
        assert set(st.pop_newly_ready()) == {"T2", "T3"}
        assert st.pop_newly_ready() == []

    def test_done_after_all_commits(self):
        st = fresh_state()
        for t in ("T1", "T2", "T3", "T4"):
            st.commit(st.est(t, Memory.RED))
        assert st.done and st.n_scheduled == 4


class TestESTComponents:
    def test_unready_task_is_infeasible(self):
        st = fresh_state()
        bd = st.est("T4", Memory.BLUE)
        assert not bd.feasible and bd.eft == math.inf

    def test_empty_resource_class_is_infeasible(self):
        st = SchedulerState(dex(), Platform(n_blue=0, n_red=1))
        assert not st.est("T1", Memory.BLUE).feasible
        assert st.est("T1", Memory.RED).feasible

    def test_root_est_is_zero(self):
        st = fresh_state()
        bd = st.est("T1", Memory.RED)
        assert bd.est == 0 and bd.eft == 1      # W_red(T1) = 1
        bd = st.est("T1", Memory.BLUE)
        assert bd.est == 0 and bd.eft == 3      # W_blue(T1) = 3

    def test_same_memory_child_waits_for_parent_only(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))     # finishes at 1
        bd = st.est("T2", Memory.RED)
        assert bd.precedence == 1
        assert bd.cmax == 0
        assert bd.est == 1

    def test_cross_memory_child_pays_communication(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))     # finishes at 1
        bd = st.est("T2", Memory.BLUE)
        assert bd.precedence == 1 + 1           # AFT(T1) + C(T1,T2)
        assert bd.cmax == 1
        assert bd.est == 2

    def test_resource_est_waits_for_processor(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))     # red proc busy until 1
        st.commit(st.est("T3", Memory.RED))     # red proc busy until 4
        bd = st.est("T2", Memory.RED)
        assert bd.resource == 4
        assert bd.est == 4

    def test_task_mem_est_blocks_on_capacity(self):
        # MemReq(T3) = 4 > 3: T3 can never run on a 3-unit memory.
        st = fresh_state(mem_blue=3, mem_red=3)
        st.commit(st.est("T1", Memory.RED))
        assert not st.est("T3", Memory.RED).feasible
        assert not st.est("T3", Memory.BLUE).feasible

    def test_comm_mem_component_includes_cmax(self):
        st = fresh_state(mem_blue=5, mem_red=5)
        st.commit(st.est("T1", Memory.RED))
        bd = st.est("T2", Memory.BLUE)
        # Cross input of size 1 fits immediately: comm_mem = 0 + Cmax = 1.
        assert bd.comm_mem == 1

    def test_best_est_picks_min_eft(self):
        st = fresh_state()
        best = st.best_est("T1")
        assert best.memory is Memory.RED        # EFT 1 beats EFT 3
        assert best.eft == 1


class TestCommitBookkeeping:
    def test_outputs_allocated_at_start(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))
        # out_size(T1) = 3 resident from t=0.
        assert st.mem[Memory.RED].used_at(0) == 3
        assert st.mem[Memory.BLUE].used_at(0) == 0

    def test_same_memory_input_freed_at_finish(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))
        st.commit(st.est("T3", Memory.RED))     # T3 on red: [1, 4)
        # During T3: F(1,2)+F(1,3)+F(3,4) = 5 on red (paper: RedMemUsed(T3)=5).
        assert st.mem[Memory.RED].used_at(2) == 5
        # At t=4 the input F(1,3)=2 is freed; F(1,2)+F(3,4) = 3 remain.
        assert st.mem[Memory.RED].used_at(4) == 3

    def test_cross_memory_transfer_moves_the_file(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))
        st.commit(st.est("T2", Memory.BLUE))    # starts at 2 after comm [1,2)
        ev = st.schedule.comm("T1", "T2")
        assert (ev.start, ev.finish) == (1, 2)
        # During the transfer only the incoming copy occupies blue.
        assert st.mem[Memory.BLUE].used_at(1.5) == 1
        assert st.mem[Memory.RED].used_at(1.5) == 3       # both copies live
        # Paper: BlueMemUsed(T2) = F(1,2) + F(2,4) = 2 while T2 runs.
        assert st.mem[Memory.BLUE].used_at(2.5) == 2
        # Source copy freed when the transfer ends: only F(1,3)=2 remains.
        assert st.mem[Memory.RED].used_at(2.5) == 2

    def test_peaks_match_paper_for_s1_like_run(self):
        st = fresh_state()
        st.commit(st.est("T1", Memory.RED))
        st.commit(st.est("T3", Memory.RED))
        st.commit(st.est("T2", Memory.BLUE))
        st.commit(st.est("T4", Memory.RED))
        peaks = st.peaks()
        assert peaks[Memory.BLUE] == 2
        assert peaks[Memory.RED] == 5
        st.check_invariants()

    def test_transfer_clipped_to_producer_finish(self):
        # Two cross parents with very different finish times: the common
        # late window would start before the slow parent finishes; the
        # commit must clip each transfer to its producer.
        from repro import TaskGraph
        g = TaskGraph()
        g.add_task("fast", 1, 1)
        g.add_task("slow", 50, 50)
        g.add_task("join", 1, 1)
        g.add_dependency("fast", "join", size=1, comm=10)
        g.add_dependency("slow", "join", size=1, comm=1)
        st = SchedulerState(g, Platform(2, 2))
        st.commit(st.est("fast", Memory.RED))
        st.commit(st.est("slow", Memory.RED))
        st.commit(st.est("join", Memory.BLUE))
        ev_slow = st.schedule.comm("slow", "join")
        assert ev_slow.start >= 50            # not before the producer ends
        ev_fast = st.schedule.comm("fast", "join")
        assert ev_fast.finish - ev_fast.start >= 10

    def test_choose_proc_minimises_idle(self):
        st = SchedulerState(dex(), Platform(3, 1))
        st.avail[0] = 5.0
        st.avail[1] = 2.0
        st.avail[2] = 9.0
        assert st.choose_proc(Memory.BLUE, est=6.0) == 0   # latest avail <= est
        assert st.choose_proc(Memory.BLUE, est=2.0) == 1

    def test_commit_infeasible_rejected(self):
        st = fresh_state()
        with pytest.raises(ValueError):
            st.commit(st.est("T4", Memory.BLUE))

    def test_invalid_comm_policy_rejected(self):
        with pytest.raises(ValueError, match="comm_policy"):
            fresh_state(comm_policy="sometimes")

    def test_eager_policy_fires_transfers_early(self):
        late = fresh_state(comm_policy="late")
        eager = fresh_state(comm_policy="eager")
        for st in (late, eager):
            st.commit(st.est("T1", Memory.RED))
            # Park T3 on red so T2's blue EST moves later.
            st.commit(st.est("T3", Memory.RED))
            st.commit(st.est("T2", Memory.BLUE))
        ev_late = late.schedule.comm("T1", "T2")
        ev_eager = eager.schedule.comm("T1", "T2")
        assert ev_eager.start <= ev_late.start
        assert ev_eager.finish - ev_eager.start == 1       # exactly C
