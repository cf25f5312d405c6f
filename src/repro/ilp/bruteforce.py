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
(``tests/ilp/test_property.py``, ``tests/ilp/test_bruteforce.py``).
Branch and bound prunes with per-task min-time bottom levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..scheduling.state import SchedulerState

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
    order = {t: k for k, t in enumerate(graph.topological_order())}

    best_makespan = math.inf if upper_bound is None else float(upper_bound)
    best_schedule: Optional[Schedule] = None
    nodes = 0
    exhausted = True

    root = SchedulerState(graph, platform)
    stack: list[tuple[SchedulerState, set[Task]]] = [(root, set(graph.roots()))]

    while stack:
        if nodes >= node_limit:
            exhausted = False
            break
        state, ready = stack.pop()
        nodes += 1
        if state.done:
            span = state.schedule.makespan
            if span < best_makespan - 1e-9:
                best_makespan = span
                best_schedule = state.schedule
                best_schedule.meta["algorithm"] = "optimal-eager"
            continue

        candidates = []
        for task in sorted(ready, key=order.__getitem__):
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
        for bd in candidates:
            child = state.copy()
            child.commit(child.est(bd.task, bd.memory))
            child_ready = set(ready)
            child_ready.discard(bd.task)
            child_ready.update(child.pop_newly_ready())
            stack.append((child, child_ready))

    return EagerSearchResult(
        makespan=best_makespan if best_schedule is not None or upper_bound is not None
        else math.inf,
        schedule=best_schedule,
        nodes=nodes,
        exhausted=exhausted,
    )
