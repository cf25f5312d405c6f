"""Exhaustive search over *eager committed* schedules (tiny instances).

Explores every sequence of (ready task, memory) commitments using exactly
the commitment machinery of the heuristics (transfers as late as possible,
earliest feasible start).  Each heuristic run is one path of this tree, so
the search optimum is:

* an upper bound on the true (ILP) optimum — eager schedules never insert
  idle time beyond what the EST rules force;
* a lower bound on every list-scheduling heuristic built on
  :class:`~repro.scheduling.state.SchedulerState`.

Tests use the sandwich ``LB <= ILP <= eager <= heuristic``
(``tests/ilp/test_property.py``, ``tests/ilp/test_sandwich.py``).
Branch and bound prunes with per-task min-time bottom levels.

A search node is the tuple of breakdowns committed on the way to it.  Its
state is rebuilt by replaying that tuple through
:meth:`SchedulerState.commit` on a fresh state, so the search never clones
a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.graph import TaskGraph
from repro.core.platform import Platform
from repro.core.schedule import Schedule
from repro.scheduling.kernel import ESTBreakdown
from repro.scheduling.state import SchedulerState

Task = Hashable


@dataclass
class EagerSearchResult:
    """Best eager schedule found (``schedule is None`` => infeasible)."""

    makespan: float
    schedule: Optional[Schedule]
    nodes: int
    exhausted: bool

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


def _bottom_levels(graph: TaskGraph) -> dict[Task, float]:
    levels: dict[Task, float] = {}
    for t in reversed(graph.topological_order()):
        levels[t] = graph.w_min(t) + max(
            (levels[c] for c in graph.children(t)), default=0.0
        )
    return levels


def _replay(graph: TaskGraph, platform: Platform,
            path: tuple[ESTBreakdown, ...]) -> SchedulerState:
    state = SchedulerState(graph, platform)
    for bd in path:
        state.commit(bd)
    return state


def optimal_eager(
    graph: TaskGraph,
    platform: Platform,
    *,
    upper_bound: Optional[float] = None,
    node_limit: int = 500_000,
) -> EagerSearchResult:
    """Best makespan over all eager committed schedules (exact for tiny DAGs).

    ``upper_bound`` (a heuristic makespan) prunes from the start.  When the
    node limit is hit, ``exhausted`` is False and the result is only an
    incumbent.
    """
    bottom = _bottom_levels(graph)
    order = graph.topological_order()

    best_makespan = math.inf if upper_bound is None else float(upper_bound)
    best_schedule: Optional[Schedule] = None
    nodes = 0
    exhausted = True

    stack: list[tuple[ESTBreakdown, ...]] = [()]

    while stack:
        if nodes >= node_limit:
            exhausted = False
            break
        path = stack.pop()
        nodes += 1
        state = _replay(graph, platform, path)
        if state.done:
            span = state.schedule.makespan
            if span < best_makespan - 1e-9:
                best_makespan = span
                best_schedule = state.schedule
                best_schedule.meta["algorithm"] = "optimal-eager"
            continue

        candidates = []
        for task in order:
            if not state.is_ready(task):
                continue
            for memory in state.memories:
                bd = state.est(task, memory)
                if not bd.feasible:
                    continue
                # Even with everything else free, this branch cannot beat
                # est + remaining critical path of the task.
                if bd.est + bottom[task] >= best_makespan - 1e-9:
                    continue
                candidates.append(bd)
        # Explore the most promising (smallest EFT) candidate last => first
        # off the LIFO stack, so good incumbents appear early.
        candidates.sort(key=lambda bd: -bd.eft)
        stack.extend(path + (bd,) for bd in candidates)

    return EagerSearchResult(
        makespan=best_makespan if best_schedule is not None or upper_bound is not None
        else math.inf,
        schedule=best_schedule,
        nodes=nodes,
        exhausted=exhausted,
    )
