"""MemSufferage — a memory-aware Sufferage heuristic (library extension).

Sufferage is the third classic heuristic of the family the paper takes
MinMin from (Braun et al. 2001, the paper's [4]): instead of committing the
task with the globally smallest EFT, commit the task that would *suffer*
most from not getting its preferred resource — the one with the largest
gap between its best and second-best completion times.

The "resources" are the platform's memory classes (two on the paper's
dual-memory platform, any k in general), so the sufferage value of an
available task is ``EFT(second-best memory) - EFT(best memory)``.  A task
that fits in only one memory is maximally urgent (infinite sufferage):
delaying it risks the remaining memory filling up.

This is *not* part of the paper — it is the natural third member of the
family and shares all of the §5.1 machinery, which makes it a one-page
extension; the benchmark suite compares it against MemHEFT/MemMinMin.
"""

from __future__ import annotations

import math
from typing import Hashable

from .. import obs
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .candidates import SufferageSelector
from .state import ESTBreakdown, InfeasibleScheduleError, SchedulerState

Task = Hashable


def memsufferage(graph: TaskGraph, platform: Platform, *,
                 comm_policy: str = "late", lazy: bool = True,
                 dag_scoped: bool = True) -> Schedule:
    """Schedule ``graph`` with the memory-aware Sufferage heuristic.

    ``lazy`` (default) serves the per-step arg-max-sufferage from the
    version-stamped candidate cache of
    :class:`repro.scheduling.candidates.SufferageSelector` — candidates
    untouched by the last commit are reused verbatim — while ``lazy=False``
    rescans every available task.  Both paths commit identical schedules.

    ``dag_scoped=False`` reverts the selector to coarse per-class
    invalidation (A/B benchmarks).

    Raises :class:`InfeasibleScheduleError` when no available task fits
    within the memory bounds (same contract as Algorithms 1-2).
    """
    state = SchedulerState(graph, platform, comm_policy=comm_policy)
    index = {t: k for k, t in enumerate(graph.topological_order())}

    if lazy:
        selector = SufferageSelector(state, index, dag_scoped=dag_scoped)
        for task in graph.roots():
            selector.push(task)
        st = obs.active()
        if st is not None:
            from .instrument import observed_lazy_run
            with obs.span("memsufferage", n_tasks=graph.n_tasks):
                return observed_lazy_run(
                    state, selector, "memsufferage", st,
                    lambda n_left: (
                        "MemSufferage: no available task fits within the "
                        f"memory bounds ({n_left} available, "
                        f"capacities={list(platform.capacities)})"))
        while len(selector):
            best_choice = selector.select()
            if best_choice is None:
                raise InfeasibleScheduleError(
                    "MemSufferage: no available task fits within the memory "
                    f"bounds ({len(selector)} available, "
                    f"capacities={list(platform.capacities)})"
                )
            state.commit(best_choice)
            selector.remove(best_choice.task)
            for task in state.pop_newly_ready():
                selector.push(task)
        return state.finalize("memsufferage")

    available: set[Task] = set(graph.roots())
    while available:
        best_choice: ESTBreakdown | None = None
        best_key: tuple[float, float, int] | None = None
        for task in sorted(available, key=index.__getitem__):
            breakdowns = [state.est(task, m) for m in state.memories]
            feasible = [bd for bd in breakdowns if bd.feasible]
            if not feasible:
                continue
            feasible.sort(key=lambda bd: bd.eft)
            preferred = feasible[0]
            if len(feasible) >= 2:
                sufferage = feasible[1].eft - feasible[0].eft
            else:
                sufferage = math.inf  # only one memory can take it: urgent
            # Maximise sufferage; break ties towards the smaller EFT, then
            # the stable task index.
            key = (-sufferage, preferred.eft, index[task])
            if best_key is None or key < best_key:
                best_key = key
                best_choice = preferred
        if best_choice is None:
            raise InfeasibleScheduleError(
                "MemSufferage: no available task fits within the memory "
                f"bounds ({len(available)} available, "
                f"capacities={list(platform.capacities)})"
            )
        state.commit(best_choice)
        available.discard(best_choice.task)
        available.update(state.pop_newly_ready())

    return state.finalize("memsufferage")


def sufferage(graph: TaskGraph, platform: Platform) -> Schedule:
    """Classical (memory-oblivious) Sufferage: the unbounded special case."""
    schedule = memsufferage(graph, platform.unbounded())
    schedule.meta["algorithm"] = "sufferage"
    return schedule
