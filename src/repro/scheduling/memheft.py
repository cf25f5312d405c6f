"""MemHEFT — memory-aware HEFT (paper Algorithm 1).

Two phases:

1. *task prioritising* — upward ranks, list sorted by non-increasing rank
   (random tie-break);
2. *memory selection* — walk the list from the front; the first task that is
   ready and fits in some memory is assigned to the memory minimising its
   EFT and to the processor minimising idle time, its incoming transfers are
   scheduled as late as possible, and the scan restarts from the front.

If no remaining task can be scheduled the memory bounds are unsatisfiable
for this heuristic and :class:`InfeasibleScheduleError` is raised
(the ``Error`` branch of Algorithm 1).

By default the "first ready task in rank order that fits" query is served
by a heap over the rank positions of the *ready* tasks
(:class:`repro.scheduling.candidates.RankSelector`) instead of re-walking
the remaining list — which is mostly not-yet-ready tasks — on every step;
``lazy=False`` keeps the list walk.  Both paths commit identical schedules.
"""

from __future__ import annotations

from .. import obs
from .._util import RngLike
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .candidates import RankSelector
from .ranks import rank_order
from .state import InfeasibleScheduleError, SchedulerState


def memheft(graph: TaskGraph, platform: Platform, *, rng: RngLike = None,
            comm_policy: str = "late", lazy: bool = True) -> Schedule:
    """Schedule ``graph`` on ``platform`` with MemHEFT.

    ``comm_policy`` selects when incoming transfers fire: ``"late"`` (the
    paper's choice) or ``"eager"`` (ablation, see
    :mod:`repro.experiments.ablation`).  ``lazy`` selects the ready-task
    heap (default) or the naive priority-list walk.

    The upward ranks are speed-aware: on heterogeneous platforms each
    class's execution term is normalised by its fastest processor (a no-op
    on the paper's speed-1.0 platforms).

    Raises
    ------
    InfeasibleScheduleError
        When the heuristic cannot fit the graph within the memory bounds.
    """
    state = SchedulerState(graph, platform, comm_policy=comm_policy)

    if lazy:
        if obs.active() is not None:
            return _lazy_observed(state, graph, platform, rng)
        position = {t: k for k, t in enumerate(
            rank_order(graph, rng=rng, platform=platform))}
        selector = RankSelector(state, position)
        for task in graph.roots():
            selector.push(task)
        n_left = graph.n_tasks
        while n_left:
            best = selector.select()
            if best is None:
                raise InfeasibleScheduleError(
                    "MemHEFT: no remaining task fits within the memory "
                    f"bounds ({n_left} tasks left, "
                    f"capacities={list(platform.capacities)})"
                )
            state.commit(best)
            selector.remove(best.task)
            n_left -= 1
            for task in state.pop_newly_ready():
                selector.push(task)
        return state.finalize("memheft")

    remaining = rank_order(graph, rng=rng, platform=platform)
    while remaining:
        committed = False
        for index, task in enumerate(remaining):
            if not state.is_ready(task):
                # Skipping keeps the list scan faithful to Algorithm 1: a
                # not-yet-ready task has EFT = +inf on both memories.
                continue
            best = state.best_est(task)
            if best is None:
                continue
            state.commit(best)
            remaining.pop(index)
            committed = True
            break
        if not committed:
            raise InfeasibleScheduleError(
                "MemHEFT: no remaining task fits within the memory bounds "
                f"({len(remaining)} tasks left, "
                f"capacities={list(platform.capacities)})"
            )
    return state.finalize("memheft")


def _lazy_observed(state: SchedulerState, graph: TaskGraph,
                   platform: Platform, rng: RngLike) -> Schedule:
    """The lazy path under :mod:`repro.obs`: identical commit sequence,
    plus an algorithm span, a rank-phase span, and per-phase timings."""
    from .instrument import observed_lazy_run

    import time

    st = obs.active()
    with obs.span("memheft", n_tasks=graph.n_tasks):
        t0 = time.perf_counter()
        with obs.span("rank"):
            position = {t: k for k, t in enumerate(
                rank_order(graph, rng=rng, platform=platform))}
        st.registry.counter("memsched_phase_seconds_total",
                            algorithm="memheft",
                            phase="rank").inc(time.perf_counter() - t0)
        selector = RankSelector(state, position)
        for task in graph.roots():
            selector.push(task)
        return observed_lazy_run(
            state, selector, "memheft", st,
            lambda n_left: (
                "MemHEFT: no remaining task fits within the memory "
                f"bounds ({n_left} tasks left, "
                f"capacities={list(platform.capacities)})"),
            n_tasks=graph.n_tasks)
