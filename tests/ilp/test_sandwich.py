"""The LB <= ILP <= eager <= heuristic sandwich (the paper's §4 ILP
against §5's heuristics)."""

import pytest

from repro import (
    InfeasibleScheduleError,
    Platform,
    memheft,
    memminmin,
)
from repro.core.bounds import lower_bound
from repro.dags import tiny_rand_set
from repro.ilp import solve_ilp

from ..scheduling.eager_search import optimal_eager


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
