"""Heterogeneous-processor (per-processor ``speeds``) engine tests.

Three layers:

* unit tests of the per-processor EST kernel — the fast processor wins,
  slower-but-idle processors win when the fast one is busy, ``commit``
  honours the pre-chosen processor, the speed-aware validator accepts the
  per-proc durations;
* hypothesis properties — every heterogeneous schedule validates
  (speed-aware durations, any memory bounds), every heuristic and its
  reference rescan stay decision-identical, and explicit
  ``speeds=1.0`` stays bit-identical to the default homogeneous platform
  (the uniform-class fast path);
* the *platform dominance* property behind the "≤ all-slowest run"
  acceptance criterion: replaying the all-slowest homogeneous run's exact
  placements (same commit order, memory and processor) on the
  heterogeneous platform validates and never finishes later — speeding
  processors up can only help the platform.  The *heuristics themselves*
  are deliberately NOT pinned to that inequality: like all greedy list
  schedulers they suffer Graham anomalies (fuzzing finds ~0.3% of random
  instances where the heterogeneous heuristic run is slightly slower than
  the all-slowest one), the same non-monotonicity already documented for
  memory bounds in ``repro.experiments.engine``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import Memory, Platform
from repro.core.validation import validate_schedule
from repro.dags.daggen import random_dag
from repro.dags.toy import dex
from repro.experiments.sweep import spread_speeds
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import SchedulerState
from repro.scheduling.sufferage import memsufferage

from .scan_reference import reference

HEURISTICS = (memheft, memminmin, memsufferage)


def _same_placements(a, b, graph):
    return all(a.placement(t) == b.placement(t) for t in graph.tasks())


# ----------------------------------------------------------------------
# kernel unit tests
# ----------------------------------------------------------------------
class TestPerProcessorKernel:
    def test_fast_processor_wins_when_both_idle(self):
        g = dex()
        # Blue has a slow and a fast processor; the fast one (index 1)
        # must take the first blue task.
        plat = Platform(n_blue=2, n_red=1, speeds=[1.0, 2.0, 1.0])
        st_ = SchedulerState(g, plat)
        bd = st_.est("T1", Memory.BLUE)
        assert bd.proc == 1
        assert bd.duration == g.w_blue("T1") / 2.0
        assert bd.eft == bd.est + bd.duration

    def test_idle_slow_processor_wins_over_busy_fast_one(self):
        g = dex()
        plat = Platform(n_blue=2, n_red=1, speeds=[1.0, 10.0, 1.0])
        st_ = SchedulerState(g, plat)
        st_.avail[1] = 1000.0          # fast blue processor busy for ages
        bd = st_.est("T1", Memory.BLUE)
        assert bd.proc == 0
        assert bd.duration == g.w_blue("T1")

    def test_commit_honours_chosen_processor_and_duration(self):
        g = dex()
        plat = Platform(n_blue=2, n_red=1, speeds=[1.0, 4.0, 1.0])
        st_ = SchedulerState(g, plat)
        bd = st_.est("T1", Memory.BLUE)
        placement = st_.commit(bd)
        assert placement.proc == bd.proc == 1
        assert placement.duration == g.w_blue("T1") / 4.0
        assert st_.avail[1] == placement.finish

    def test_uniform_class_keeps_min_avail_fast_path(self):
        g = dex()
        plat = Platform(n_blue=2, n_red=1, speeds=[3.0, 3.0, 1.0])
        st_ = SchedulerState(g, plat)
        bd = st_.est("T1", Memory.BLUE)
        assert bd.proc == -1            # choose_proc decides at commit
        assert bd.duration == g.w_blue("T1") / 3.0

    def test_validator_accepts_and_checks_per_proc_durations(self):
        g = dex()
        plat = Platform(n_blue=1, n_red=1, speeds=[1.0, 2.0])
        s = memheft(g, plat)
        validate_schedule(g, plat, s)   # must not raise
        # The same schedule against the homogeneous platform must be
        # rejected: red placements run twice as fast as W^(red).
        red = [p for p in s.placements()
               if p.memory is Memory.RED and p.duration > 0]
        if red:
            import pytest
            from repro.core.validation import ScheduleError
            with pytest.raises(ScheduleError):
                validate_schedule(g, plat.with_speeds(None), s)

    def test_lower_bound_uses_fastest_processor(self):
        from repro.scheduling.candidates import MinEFTSelector
        g = dex()
        plat = Platform(n_blue=2, n_red=1, speeds=[1.0, 4.0, 1.0])
        st_ = SchedulerState(g, plat)
        selector = MinEFTSelector(st_, {"T1": 0})
        selector.push("T1")
        entry = selector._live["T1"]
        key = selector._lower_bound(entry, [0.0, 0.0])
        # T1 is a root: Wmin^(c) alone, on blue's x4 processor.
        assert entry.lbparts[0][0] == g.w_blue("T1") / 4.0
        assert entry.lbparts[1][0] == g.w_red("T1")
        assert key == min(g.w_blue("T1") / 4.0, g.w_red("T1"))


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------
graph_params = st.fixed_dictionaries({
    "size": st.integers(min_value=1, max_value=20),
    "width": st.floats(min_value=0.05, max_value=1.0),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
})

counts_params = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
).filter(lambda p: p[0] + p[1] >= 1)

speed_value = st.floats(min_value=0.25, max_value=4.0,
                        allow_nan=False, allow_infinity=False)


def _build(params, counts, speeds_seed):
    graph = random_dag(size=params["size"], width=params["width"],
                       rng=params["seed"])
    import random
    rng = random.Random(speeds_seed)
    speeds = [round(rng.uniform(0.25, 4.0), 3) for _ in range(sum(counts))]
    platform = Platform(list(counts), [math.inf, math.inf], speeds=speeds)
    return graph, platform


class TestHeterogeneousProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph_params, counts_params, st.integers(0, 2**31 - 1),
           st.sampled_from(HEURISTICS))
    def test_heterogeneous_schedule_validates(self, params, counts,
                                              speeds_seed, algo):
        graph, platform = _build(params, counts, speeds_seed)
        s = algo(graph, platform)
        peaks = validate_schedule(graph, platform, s)
        assert len(s) == graph.n_tasks
        assert set(peaks) == set(platform.memories())

    @settings(max_examples=25, deadline=None)
    @given(graph_params, counts_params, st.integers(0, 2**31 - 1),
           st.sampled_from(HEURISTICS))
    def test_lazy_equals_naive_on_heterogeneous_platforms(
            self, params, counts, speeds_seed, algo):
        graph, platform = _build(params, counts, speeds_seed)
        lazy = algo(graph, platform)
        naive = reference(algo)(graph, platform)
        assert _same_placements(lazy, naive, graph)

    @settings(max_examples=25, deadline=None)
    @given(graph_params, counts_params, st.sampled_from(HEURISTICS))
    def test_explicit_unit_speeds_bit_identical_to_default(
            self, params, counts, algo):
        graph = random_dag(size=params["size"], width=params["width"],
                           rng=params["seed"])
        plain = Platform(list(counts), [math.inf, math.inf])
        explicit = plain.with_speeds([1.0] * sum(counts))
        assert not explicit.is_heterogeneous
        assert _same_placements(algo(graph, plain),
                                algo(graph, explicit), graph)


# ----------------------------------------------------------------------
# platform dominance: replaying the all-slowest run can only get faster
# ----------------------------------------------------------------------
def _replay_on(graph, platform, reference):
    """Re-enact ``reference``'s placements (commit order, memory AND
    processor) on ``platform`` through the engine; returns the schedule.

    With every processor at least as fast as the reference platform's
    uniform speed, a task-by-task induction gives ``est`` and ``finish``
    never later than the reference — the makespan can only improve.
    """
    state = SchedulerState(graph, platform)
    topo = {t: i for i, t in enumerate(graph.topological_order())}
    order = sorted(graph.tasks(),
                   key=lambda t: (reference.placement(t).start, topo[t]))
    for task in order:
        ref = reference.placement(task)
        bd = state.est(task, ref.memory)
        floor = max(bd.precedence, bd.task_mem, bd.comm_mem)
        est = max(floor, state.avail[ref.proc])
        duration = graph.w(task, ref.memory) / platform.speed(ref.proc)
        state.commit(bd._replace(
            proc=ref.proc, est=est, eft=est + duration,
            duration=duration, resource=state.avail[ref.proc]))
    return state.finalize("replay")


class TestAllSlowestDominance:
    @settings(max_examples=40, deadline=None)
    @given(graph_params, counts_params, st.integers(0, 2**31 - 1),
           st.sampled_from(HEURISTICS))
    def test_replayed_slow_run_validates_and_never_slower(
            self, params, counts, speeds_seed, algo):
        graph, hetero = _build(params, counts, speeds_seed)
        slowest = hetero.with_speeds([min(hetero.speeds)] * hetero.n_procs)
        slow_run = algo(graph, slowest)
        replay = _replay_on(graph, hetero, slow_run)
        validate_schedule(graph, hetero, replay)
        assert replay.makespan <= slow_run.makespan + 1e-9


# ----------------------------------------------------------------------
# spread_speeds helper
# ----------------------------------------------------------------------
class TestSpreadSpeeds:
    def test_zero_spread_is_homogeneous(self):
        plat = spread_speeds(Platform(4, 2), 0.0)
        assert not plat.is_heterogeneous

    def test_spread_preserves_class_mean_and_capacities(self):
        base = Platform(4, 3, 10.0, 20.0)
        plat = spread_speeds(base, 0.5)
        assert plat.capacities == base.capacities
        for c in plat.classes():
            cs = plat.class_speeds(c)
            assert math.isclose(sum(cs) / len(cs), 1.0)
            assert max(cs) == 1.5 and min(cs) == 0.5

    def test_single_proc_classes_stay_unit_speed(self):
        plat = spread_speeds(Platform(1, 1), 0.7)
        assert plat.speeds == (1.0, 1.0)

    def test_invalid_spread_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            spread_speeds(Platform(2, 2), 1.0)
        with pytest.raises(ValueError):
            spread_speeds(Platform(2, 2), -0.1)
