"""MemMinMin — memory-aware MinMin (paper Algorithm 2).

No static priority: at each step the heuristic evaluates every *available*
task (all parents scheduled) on both memories and commits the pair
``(task, memory)`` with the minimum EFT.  Raises
:class:`InfeasibleScheduleError` when no available task fits (the ``Error``
branch of Algorithm 2).

By default the per-step argmin is served by the lazy candidate heap of
:mod:`repro.scheduling.candidates` instead of a full rescan of the
available set; ``lazy=False`` keeps the naive scan, and both paths take
decision-for-decision identical schedules
(``tests/scheduling/test_lazy_selection.py``).
"""

from __future__ import annotations

from typing import Hashable

from .. import obs
from .._util import EPS
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .candidates import MinEFTSelector
from .state import ESTBreakdown, InfeasibleScheduleError, SchedulerState

Task = Hashable


def memminmin(graph: TaskGraph, platform: Platform, *,
              comm_policy: str = "late", lazy: bool = True,
              dag_scoped: bool = True) -> Schedule:
    """Schedule ``graph`` on ``platform`` with MemMinMin.

    ``comm_policy``: ``"late"`` (paper) or ``"eager"`` (ablation).
    ``lazy``: serve the per-step argmin from the lazy candidate heap
    (default) or rescan every available task (the reference path).
    ``dag_scoped=False`` reverts the selector to coarse per-class
    invalidation (A/B benchmarks).
    """
    state = SchedulerState(graph, platform, comm_policy=comm_policy)
    # Stable task indices make the (unspecified) tie-break deterministic.
    index = {t: k for k, t in enumerate(graph.topological_order())}

    if lazy:
        selector = MinEFTSelector(state, index, dag_scoped=dag_scoped)
        for task in graph.roots():
            selector.push(task)
        st = obs.active()
        if st is not None:
            from .instrument import observed_lazy_run
            with obs.span("memminmin", n_tasks=graph.n_tasks):
                return observed_lazy_run(
                    state, selector, "memminmin", st,
                    lambda n_left: (
                        "MemMinMin: no available task fits within the "
                        f"memory bounds ({n_left} available, "
                        f"capacities={list(platform.capacities)})"))
        while len(selector):
            best = selector.select()
            if best is None:
                raise InfeasibleScheduleError(
                    "MemMinMin: no available task fits within the memory "
                    f"bounds ({len(selector)} available, "
                    f"capacities={list(platform.capacities)})"
                )
            state.commit(best)
            selector.remove(best.task)
            for task in state.pop_newly_ready():
                selector.push(task)
        return state.finalize("memminmin")

    available: set[Task] = set(graph.roots())
    while available:
        best: ESTBreakdown | None = None
        for task in sorted(available, key=index.__getitem__):
            cand = state.best_est(task)
            if cand is None:
                continue
            if best is None or cand.eft < best.eft - EPS:
                best = cand
        if best is None:
            raise InfeasibleScheduleError(
                "MemMinMin: no available task fits within the memory bounds "
                f"({len(available)} available, "
                f"capacities={list(platform.capacities)})"
            )
        state.commit(best)
        available.discard(best.task)
        available.update(state.pop_newly_ready())

    if not state.done:  # pragma: no cover - readiness propagation guarantees this
        raise InfeasibleScheduleError("MemMinMin: tasks remain but none is available")
    return state.finalize("memminmin")
