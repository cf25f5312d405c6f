"""HiGHS-backed exact solver: paper-example optima, statuses, limits."""

import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from repro import Platform, TaskGraph, memheft, validate_schedule
from repro.core.bounds import memory_lower_bound
from repro.dags import chain, dex, tiny_rand_set
from repro.dags.toy import random_weights_graph
from repro.experiments import reference_run
from repro.ilp import build_model, solve_ilp, solve_model


class TestDexOptima:
    """The worked example of §3.3: optimum 6 at M=5, 7 at M=4, none at M=3."""

    def test_unbounded_optimum_is_6(self):
        sol = solve_ilp(dex(), Platform(1, 1), time_limit=120)
        assert sol.status == "optimal"
        assert sol.makespan == pytest.approx(6.0, abs=1e-4)

    def test_m5_optimum_is_6(self):
        sol = solve_ilp(dex(), Platform(1, 1, 5, 5), time_limit=120)
        assert sol.status == "optimal"
        assert sol.makespan == pytest.approx(6.0, abs=1e-4)
        peaks = validate_schedule(dex(), Platform(1, 1, 5, 5), sol.schedule,
                                  eps=1e-4)
        assert max(peaks.values()) <= 5 + 1e-4

    def test_m4_optimum_is_7(self):
        sol = solve_ilp(dex(), Platform(1, 1, 4, 4), time_limit=120)
        assert sol.status == "optimal"
        assert sol.makespan == pytest.approx(7.0, abs=1e-4)
        peaks = validate_schedule(dex(), Platform(1, 1, 4, 4), sol.schedule,
                                  eps=1e-4)
        assert max(peaks.values()) <= 4 + 1e-4

    def test_m3_is_infeasible(self):
        sol = solve_ilp(dex(), Platform(1, 1, 3, 3), time_limit=120)
        assert sol.status == "infeasible"
        assert sol.makespan is None and sol.schedule is None
        assert sol.lower_bound == math.inf


class TestSolverMechanics:
    def test_chain_trivial_optimum(self):
        # A chain on one-red platform: makespan = sum of red times.
        g = chain(3, w_blue=9, w_red=2, size=0, comm=0)
        sol = solve_ilp(g, Platform(0, 1), time_limit=60)
        assert sol.status == "optimal"
        assert sol.makespan == pytest.approx(6.0, abs=1e-4)

    def test_node_limit_reports_limit_or_solution(self):
        model = build_model(dex(), Platform(1, 1, 4, 4))
        sol = solve_model(model, node_limit=1, time_limit=60)
        assert sol.status in ("limit", "feasible", "optimal")
        assert sol.nodes <= 1

    def test_time_limit_without_incumbent_reports_limit(self):
        sol = solve_model(build_model(dex(), Platform(1, 1, 4, 4)),
                          time_limit=0.0)
        assert sol.status == "limit"
        assert sol.makespan is None and sol.schedule is None

    def test_incumbent_seeding_prunes(self):
        plat = Platform(1, 1)
        incumbent = memheft(dex(), plat)
        assert incumbent.makespan == 6.0
        model = build_model(dex(), plat, makespan_ub=incumbent.makespan)
        sol = solve_model(model, incumbent=incumbent, time_limit=60)
        # The optimum equals the seed: proven optimal without a better x.
        assert sol.status == "optimal"
        assert sol.schedule is incumbent
        assert sol.makespan == sol.lower_bound == 6.0
        assert incumbent.meta["ilp_status"] == "optimal"

    def test_lower_bound_never_exceeds_makespan(self):
        sol = solve_model(build_model(dex(), Platform(1, 1, 5, 5)),
                          time_limit=60)
        assert sol.status == "optimal"
        assert sol.lower_bound <= sol.makespan
        assert sol.lower_bound == pytest.approx(sol.makespan, abs=1e-6)

    def test_unseeded_model_solves(self):
        sol = solve_model(build_model(dex(), Platform(1, 1)), time_limit=120)
        assert sol.status == "optimal"
        assert sol.makespan == pytest.approx(6.0, abs=1e-4)
        assert sol.schedule is not None
        assert sol.schedule.meta["algorithm"] == "ilp"

    def test_extracted_schedule_matches_makespan(self):
        sol = solve_ilp(dex(), Platform(1, 1, 5, 5), time_limit=120)
        assert sol.schedule.makespan == sol.makespan


def _fake_milp(status, message):
    def fake(*args, **kwargs):
        return OptimizeResult(status=status, message=message, x=None,
                              fun=None, mip_dual_bound=None,
                              mip_node_count=None)
    return fake


class TestHighsStatuses:
    def test_capped_model_infeasible_proves_incumbent(self, monkeypatch):
        # HiGHS may call the model capped at the incumbent infeasible:
        # nothing beats the incumbent, so it is the optimum.
        plat = Platform(1, 1)
        incumbent = memheft(dex(), plat)
        model = build_model(dex(), plat, makespan_ub=incumbent.makespan)
        monkeypatch.setattr("repro.ilp.solver.milp",
                            _fake_milp(2, "Infeasible"))
        sol = solve_model(model, incumbent=incumbent)
        assert sol.status == "optimal"
        assert sol.schedule is incumbent
        assert sol.makespan == sol.lower_bound == incumbent.makespan

    def test_limit_keeps_incumbent_as_feasible(self, monkeypatch):
        plat = Platform(1, 1)
        incumbent = memheft(dex(), plat)
        model = build_model(dex(), plat, makespan_ub=incumbent.makespan)
        monkeypatch.setattr("repro.ilp.solver.milp",
                            _fake_milp(1, "Time limit reached"))
        sol = solve_model(model, incumbent=incumbent)
        assert sol.status == "feasible"
        assert sol.schedule is incumbent
        assert sol.lower_bound == -math.inf

    def test_other_status_raises_with_highs_message(self, monkeypatch):
        model = build_model(dex(), Platform(1, 1))
        monkeypatch.setattr("repro.ilp.solver.milp",
                            _fake_milp(4, "Solve error"))
        with pytest.raises(RuntimeError, match="Solve error"):
            solve_model(model)


class TestRegressions:
    def test_tiny_rand_2_at_0_7_is_proven_optimal(self):
        # A depth-first branch and bound over linprog relaxations (the
        # earlier solver) stopped here at its time limit with makespan 41
        # and status "feasible".  Without the c19p rows HiGHS "proved" 37
        # with a schedule that overflows blue memory (peak 24 > 22.4).
        graph = tiny_rand_set(3, 6)[2]
        plat = Platform(1, 1)
        ref = reference_run(graph, plat)
        bounded = plat.with_uniform_bound(0.7 * ref.ref_memory)
        sol = solve_ilp(graph, bounded, time_limit=10)
        assert sol.status == "optimal"
        assert sol.makespan == 40.0
        validate_schedule(graph, bounded, sol.schedule, eps=1e-4)

    @pytest.mark.parametrize("n, seed, factor, optimum", [
        (4, 171288, 1.2758419680635122, 8.0),
        (6, 22798, 1.1738137413312366, 19.0),
        (5, 738689, 1.1683075448934142, 25.0),
    ])
    def test_tied_transfer_keeps_its_file(self, n, seed, factor, optimum):
        # Each instance once "solved" to a schedule one unit shorter that
        # the validator rejects: a zero-length transfer tied with another
        # transfer's start, and the model counted its file nowhere.
        g = random_weights_graph(n, rng=seed)
        plat = Platform(1, 1).with_uniform_bound(factor * memory_lower_bound(g))
        sol = solve_ilp(g, plat, time_limit=60)
        assert sol.status == "optimal"
        assert sol.makespan == optimum
        validate_schedule(g, plat, sol.schedule, eps=1e-4)

    def test_makespan_cap_is_exact(self, capfd):
        # With the cap at makespan_ub + 1e-6, HiGHS ended this instance
        # (lower bound = incumbent) with "Solve error" and wrote a stray
        # line to fd 1.
        g = random_weights_graph(1, rng=711693)
        plat = Platform(1, 1).with_uniform_bound(1.514 * memory_lower_bound(g))
        sol = solve_ilp(g, plat, time_limit=60)
        assert sol.status == "optimal"
        assert sol.makespan == sol.lower_bound
        assert capfd.readouterr().out == ""

    def test_near_integer_times_snap(self):
        # HiGHS returns event times about 1e-6 off here (task 2 started at
        # 4.999999 on the processor task 1 holds until 5.0); unsnapped,
        # the schedule overflowed blue memory and its makespan read
        # 12.999999.
        g = random_weights_graph(6, rng=985995)
        plat = Platform(1, 1).with_uniform_bound(
            1.2597187096740545 * memory_lower_bound(g))
        sol = solve_ilp(g, plat, time_limit=60)
        assert sol.status == "optimal"
        assert sol.makespan == 13.0
        assert sol.lower_bound == pytest.approx(13.0, abs=1e-6)
        validate_schedule(g, plat, sol.schedule)


class TestInvalidModelSchedule:
    # Start-order indicators at tied event times can be set cyclically, so
    # the model counts too little memory: HiGHS's optimum here is 11, with
    # task 2 and transfers (0, 1), (0, 3) all starting at t = 3 and a blue
    # peak of 15 > 12.96.  Such a schedule is never returned.
    @staticmethod
    def _instance():
        g = random_weights_graph(5, rng=781007)
        return g, Platform(1, 1).with_uniform_bound(
            1.0800175003940786 * memory_lower_bound(g))

    def test_incumbent_stands_as_feasible(self):
        g, plat = self._instance()
        sol = solve_ilp(g, plat, time_limit=60)
        assert sol.status == "feasible"
        assert sol.schedule.meta["algorithm"] == "memminmin"
        assert sol.lower_bound == pytest.approx(11.0, abs=1e-6)
        assert sol.lower_bound <= sol.makespan == 13.0
        validate_schedule(g, plat, sol.schedule)

    def test_without_incumbent_reports_limit(self):
        g, plat = self._instance()
        sol = solve_model(build_model(g, plat), time_limit=60)
        assert sol.status == "limit"
        assert sol.schedule is None and sol.makespan is None
        assert sol.lower_bound == pytest.approx(11.0, abs=1e-6)


def _jittered(n, seed):
    """``random_weights_graph(n, seed)`` with times scaled by 1000 plus a
    fraction in [0, 1): makespans near 10^4 whose schedules differ by less
    than HiGHS's default 1e-4 relative gap."""
    base = random_weights_graph(n, rng=seed)
    gen = np.random.default_rng(seed)
    g = TaskGraph(name=f"jittered{n}")
    for t in base.tasks():
        g.add_task(t, w_blue=base.w_blue(t) * 1000 + gen.uniform(0, 1),
                   w_red=base.w_red(t) * 1000 + gen.uniform(0, 1))
    for u, v in base.edges():
        g.add_dependency(u, v, size=base.size(u, v),
                         comm=base.comm(u, v) * 1000 + gen.uniform(0, 1))
    return g


class TestOptimalityGap:
    @pytest.mark.parametrize("n, seed", [(5, 0), (7, 8), (6, 13)])
    def test_optimal_closes_the_gap(self, n, seed):
        # With HiGHS's default relative gap each of these came back
        # "optimal" 0.4 to 1.6 time units above its dual bound.
        sol = solve_model(build_model(_jittered(n, seed), Platform(1, 1)),
                          time_limit=60)
        assert sol.status == "optimal"
        assert sol.lower_bound == pytest.approx(sol.makespan, abs=1e-6)


class TestPlatformChecks:
    """The model is the paper's homogeneous two-memory one: other
    platforms get a ``ValueError`` before any heuristic runs."""

    @staticmethod
    def tri_micro():
        g = TaskGraph("tri-micro", n_classes=3)
        g.add_task("a", times=(2, 1, 3))
        g.add_task("b", times=(1, 2, 1))
        g.add_dependency("a", "b", size=1, comm=1)
        return g

    @pytest.fixture
    def no_heuristics(self, monkeypatch):
        import repro.ilp

        def boom(*args, **kwargs):
            raise AssertionError("a heuristic ran before the platform check")

        monkeypatch.setattr(repro.ilp, "memminmin", boom)
        monkeypatch.setattr(repro.ilp, "memheft", boom)

    def test_solve_ilp_rejects_three_classes(self, no_heuristics):
        with pytest.raises(ValueError, match="two memory classes.* has 3"):
            solve_ilp(self.tri_micro(), Platform([1, 1, 1], [10, 10, 10]))

    def test_build_model_rejects_three_classes(self):
        with pytest.raises(ValueError, match="two memory classes.* has 3"):
            build_model(self.tri_micro(), Platform([1, 1, 1], [10, 10, 10]))

    def test_solve_ilp_rejects_one_class(self, no_heuristics):
        g = TaskGraph("mono", n_classes=1)
        g.add_task("a", times=(1,))
        with pytest.raises(ValueError, match="has 1"):
            solve_ilp(g, Platform([2], [10]))

    def test_solve_ilp_rejects_heterogeneous_speeds(self, no_heuristics):
        with pytest.raises(ValueError, match="homogeneous"):
            solve_ilp(dex(), Platform(1, 1, speeds=[1.0, 2.0]))
