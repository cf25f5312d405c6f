"""Solve a built §4 model with one HiGHS ``milp`` call (the paper used CPLEX).

``milp`` takes no MIP start, so a heuristic incumbent bounds the model
through ``build_model(makespan_ub=...)``; when HiGHS finds nothing strictly
better, the incumbent is the optimum, or the best known schedule when a
limit stopped the search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from ..core.schedule import Schedule
from ..core.validation import ScheduleError, validate_schedule
from .extract import extract_schedule
from .model import ILPModel

#: A solution must beat the incumbent by more than this to replace it.
GAP_TOL = 1e-6

_OPTIMAL, _LIMIT, _INFEASIBLE = 0, 1, 2  # scipy.optimize.milp statuses


@dataclass
class ILPSolution:
    """Outcome of one exact solve."""

    status: str  # "optimal" | "feasible" | "infeasible" | "limit"
    makespan: Optional[float]
    schedule: Optional[Schedule]
    lower_bound: float
    nodes: int
    runtime: float


def solve_model(
    model: ILPModel,
    *,
    incumbent: Optional[Schedule] = None,
    node_limit: int = 20000,
    time_limit: float = 60.0,
) -> ILPSolution:
    """Minimise ``model``'s makespan; ``incumbent`` is a known schedule.

    ``model`` must have been built with ``makespan_ub=incumbent.makespan``
    when an incumbent is given.  Statuses: ``optimal`` (proven), ``feasible``
    (the incumbent, when a limit stopped the search or HiGHS's schedule
    failed :func:`~repro.core.validation.validate_schedule`), ``limit``
    (the same, with no schedule) and ``infeasible`` (proven).  Any other
    HiGHS outcome raises :class:`RuntimeError` with HiGHS's message.
    """
    t0 = time.perf_counter()
    res = milp(
        model.c,
        constraints=LinearConstraint(model.a_ub, -np.inf, model.b_ub),
        bounds=Bounds(model.vars.lb, model.vars.ub),
        integrality=np.array(model.vars.integer, dtype=np.uint8),
        # A zero relative gap leaves HiGHS's absolute gap (1e-6 = GAP_TOL);
        # its default 1e-4 would call schedules 0.01 % off "optimal".
        options={"node_limit": node_limit, "time_limit": time_limit,
                 "mip_rel_gap": 0.0},
    )
    if res.status not in (_OPTIMAL, _LIMIT, _INFEASIBLE):
        raise RuntimeError(f"HiGHS failed on the ILP: {res.message}")
    dual = res.mip_dual_bound
    lower = -math.inf if dual is None or math.isnan(dual) else float(dual)

    schedule, rejected = incumbent, False
    if res.x is not None and (incumbent is None
                              or res.fun < incumbent.makespan - GAP_TOL):
        candidate = extract_schedule(model, res.x)
        try:
            validate_schedule(model.graph, model.platform, candidate)
            schedule = candidate
        except ScheduleError:
            # The model can undercount memory at tied event times; such a
            # schedule proves nothing, so the incumbent (if any) stands.
            rejected = True
    if res.status == _LIMIT or rejected:
        status = "limit" if schedule is None else "feasible"
    elif schedule is None:
        status, lower = "infeasible", math.inf
    else:
        status = "optimal"
    makespan = None
    if schedule is not None:
        makespan = schedule.makespan
        schedule.meta["ilp_status"] = status
        # No schedule beats a proven-optimal incumbent (HiGHS may even have
        # called the capped model infeasible); otherwise the dual bound,
        # which round-off can lift a hair above the extracted makespan.
        exact = status == "optimal" and schedule is incumbent
        lower = makespan if exact else min(lower, makespan)
    return ILPSolution(status, makespan, schedule, lower,
                       res.mip_node_count or 0, time.perf_counter() - t0)
