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

from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .driver import run
from .state import SchedulerState


def memsufferage(graph: TaskGraph, platform: Platform, *,
                 comm_policy: str = "late") -> Schedule:
    """Schedule ``graph`` with the memory-aware Sufferage heuristic.

    Every step rescans the available tasks in topological order
    (:class:`~repro.scheduling.candidates.ScanSelector` with
    :func:`~repro.scheduling.candidates.max_sufferage`), driven by the
    one loop of :mod:`repro.scheduling.driver`; the incremental EST
    kernel's memo serves the (task, class) pairs the last commit left
    untouched.

    Raises :class:`InfeasibleScheduleError` when no available task fits
    within the memory bounds (same contract as Algorithms 1-2).
    """
    state = SchedulerState(graph, platform, comm_policy=comm_policy)
    return run(state, "memsufferage", lambda left, available: (
        "MemSufferage: no available task fits within the memory bounds "
        f"({available} available, "
        f"capacities={list(platform.capacities)})"))


def sufferage(graph: TaskGraph, platform: Platform) -> Schedule:
    """Classical (memory-oblivious) Sufferage: the unbounded special case."""
    schedule = memsufferage(graph, platform.unbounded())
    schedule.meta["algorithm"] = "sufferage"
    return schedule
