"""Exact resolution: the ILP of §4."""

from __future__ import annotations

from typing import Optional

from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..scheduling.memheft import memheft
from ..scheduling.memminmin import memminmin
from ..scheduling.state import InfeasibleScheduleError
from .extract import extract_schedule
from .model import ILPModel, build_model, require_two_classes
from .solver import ILPSolution, solve_model


def solve_ilp(
    graph: TaskGraph,
    platform: Platform,
    *,
    node_limit: int = 20000,
    time_limit: float = 60.0,
) -> ILPSolution:
    """Solve the scheduling ILP for ``graph`` on ``platform``.

    The better of the MemMinMin and MemHEFT schedules (when either is
    feasible) caps the model's makespan: HiGHS then only has to find
    something strictly better, and if nothing is, the heuristic schedule is
    returned as the proven-optimal witness.

    The ILP encodes the paper's homogeneous dual-memory model (one
    duration per memory class, two classes); heterogeneous platforms and
    other class counts are rejected rather than silently solved with wrong
    durations.
    """
    if platform.is_heterogeneous:
        raise ValueError("solve_ilp only models homogeneous (all speed 1.0) "
                         "platforms; this one carries per-processor speeds")
    require_two_classes(platform)
    incumbent: Optional[Schedule] = None
    for algo in (memminmin, memheft):
        try:
            s = algo(graph, platform)
        except InfeasibleScheduleError:
            continue
        if incumbent is None or s.makespan < incumbent.makespan:
            incumbent = s

    model = build_model(graph, platform, makespan_ub=(
        None if incumbent is None else incumbent.makespan))
    return solve_model(model, incumbent=incumbent, node_limit=node_limit,
                       time_limit=time_limit)


__all__ = [
    "ILPModel",
    "build_model",
    "solve_model",
    "extract_schedule",
    "ILPSolution",
    "solve_ilp",
]
