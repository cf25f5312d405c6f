"""Property tests for the exact layer on micro graphs (n <= 4).

Small enough that the full sandwich holds within milliseconds per case:
``LB <= ILP optimum <= eager optimum <= heuristic makespans``, and the
extracted ILP schedule always validates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    InfeasibleScheduleError,
    Platform,
    memheft,
    memminmin,
    memsufferage,
    validate_schedule,
)
from repro.core.bounds import lower_bound, memory_lower_bound
from repro.dags.toy import random_weights_graph
from repro.ilp import solve_ilp

from ..scheduling.eager_search import optimal_eager

micro = st.fixed_dictionaries({
    "n": st.integers(min_value=1, max_value=4),
    "seed": st.integers(min_value=0, max_value=10**6),
    "procs": st.sampled_from([(1, 1), (2, 1)]),
})


@settings(max_examples=12, deadline=None)
@given(micro)
def test_unbounded_sandwich(params):
    g = random_weights_graph(params["n"], rng=params["seed"])
    plat = Platform(*params["procs"])
    sol = solve_ilp(g, plat, node_limit=30000, time_limit=60)
    assert sol.status == "optimal"
    lb = lower_bound(g, plat)
    eager = optimal_eager(g, plat)
    span = memheft(g, plat).makespan
    assert lb - 1e-6 <= sol.makespan <= eager.makespan + 1e-6 <= span + 2e-6
    if sol.schedule is not None:
        validate_schedule(g, plat, sol.schedule, eps=1e-4)


@settings(max_examples=10, deadline=None)
@given(micro, st.floats(min_value=0.5, max_value=1.5))
def test_bounded_status_consistent_with_memory_floor(params, factor):
    g = random_weights_graph(params["n"], rng=params["seed"])
    floor = memory_lower_bound(g)
    if floor == 0:
        return
    plat = Platform(1, 1).with_uniform_bound(factor * floor)
    sol = solve_ilp(g, plat, node_limit=30000, time_limit=60)
    # Micro graphs are always decided within the limits.
    assert sol.status in ("optimal", "infeasible")
    if factor < 1.0:
        assert sol.status == "infeasible"
    spans = []
    for algo in (memheft, memminmin, memsufferage):
        try:
            spans.append(algo(g, plat).makespan)
        except InfeasibleScheduleError:
            pass
    if sol.status == "infeasible":
        assert spans == []
    else:
        assert lower_bound(g, plat) - 1e-6 <= sol.makespan
        assert all(sol.makespan <= span + 1e-6 for span in spans)
        validate_schedule(g, plat, sol.schedule, eps=1e-4)
