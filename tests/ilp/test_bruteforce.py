"""Exhaustive eager-schedule search and the LB <= ILP <= eager <= heuristic
sandwich (the paper's §4 ILP against §5's heuristics)."""

import math

import pytest

from repro import (
    InfeasibleScheduleError,
    Platform,
    memheft,
    memminmin,
    validate_schedule,
)
from repro.core.bounds import lower_bound
from repro.dags import dex, tiny_rand_set
from repro.ilp import optimal_eager, solve_ilp


class TestOptimalEagerOnDex:
    def test_unbounded_finds_6(self):
        res = optimal_eager(dex(), Platform(1, 1))
        assert res.feasible and res.exhausted
        assert res.makespan == 6
        validate_schedule(dex(), Platform(1, 1), res.schedule)
        assert res.schedule.meta["algorithm"] == "optimal-eager"

    def test_m4_finds_7(self):
        plat = Platform(1, 1, 4, 4)
        res = optimal_eager(dex(), plat)
        assert res.makespan == 7
        validate_schedule(dex(), plat, res.schedule)

    def test_m3_infeasible(self):
        res = optimal_eager(dex(), Platform(1, 1, 3, 3))
        assert not res.feasible
        assert res.makespan == math.inf

    def test_upper_bound_prunes_but_preserves_value(self):
        free = optimal_eager(dex(), Platform(1, 1))
        seeded = optimal_eager(dex(), Platform(1, 1), upper_bound=free.makespan + 1)
        assert seeded.makespan == free.makespan
        assert seeded.nodes <= free.nodes + 1

    def test_node_limit_reported(self):
        res = optimal_eager(dex(), Platform(1, 1), node_limit=3)
        assert not res.exhausted


class TestSandwich:
    """LB <= ILP optimum <= eager optimum <= heuristic makespans."""

    @pytest.mark.parametrize("alpha", [1.0, 0.6])
    def test_sandwich_on_tiny_random_graphs(self, alpha):
        for g in tiny_rand_set(n_graphs=3, size=5):
            base = Platform(1, 1)
            from repro.scheduling.heft import heft
            ref = heft(g, base)
            bound = alpha * max(ref.meta["peak_blue"], ref.meta["peak_red"])
            plat = base.with_uniform_bound(bound)

            lb = lower_bound(g, plat)
            ilp = solve_ilp(g, plat, node_limit=30000, time_limit=90)
            eager = optimal_eager(g, plat)
            spans = []
            for algo in (memheft, memminmin):
                try:
                    spans.append(algo(g, plat).makespan)
                except InfeasibleScheduleError:
                    pass

            if ilp.status == "infeasible":
                # No schedule exists at all: eager and heuristics must agree.
                assert not eager.feasible
                assert spans == []
                continue
            assert ilp.status == "optimal", f"solver did not finish on {g.name}"
            assert lb - 1e-6 <= ilp.makespan
            if eager.feasible:
                assert ilp.makespan <= eager.makespan + 1e-6
                for s in spans:
                    assert eager.makespan <= s + 1e-6
            else:
                # Eager schedules are a strict subclass: the ILP may succeed
                # where every eager schedule fails; heuristics must fail too.
                assert spans == []
