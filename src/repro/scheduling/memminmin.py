"""MemMinMin — memory-aware MinMin (paper Algorithm 2).

No static priority: at each step the heuristic evaluates every *available*
task (all parents scheduled) on both memories and commits the pair
``(task, memory)`` with the minimum EFT.  Raises
:class:`InfeasibleScheduleError` when no available task fits (the ``Error``
branch of Algorithm 2).

The per-step argmin is served by the lazy candidate heap
:class:`~repro.scheduling.candidates.MinEFTSelector` instead of a full
rescan of the available set, driven by the one loop of
:mod:`repro.scheduling.driver`.  The rescan
(:class:`~repro.scheduling.candidates.ScanSelector` with
:func:`~repro.scheduling.candidates.min_eft`) is the reference it takes
decision-for-decision identical schedules to
(``tests/scheduling/test_lazy_selection.py``).
"""

from __future__ import annotations

from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .driver import run
from .state import SchedulerState


def memminmin(graph: TaskGraph, platform: Platform, *,
              comm_policy: str = "late") -> Schedule:
    """Schedule ``graph`` on ``platform`` with MemMinMin.

    ``comm_policy``: ``"late"`` (paper) or ``"eager"`` (ablation).
    """
    state = SchedulerState(graph, platform, comm_policy=comm_policy)
    return run(state, "memminmin", lambda left, available: (
        "MemMinMin: no available task fits within the memory bounds "
        f"({available} available, "
        f"capacities={list(platform.capacities)})"))
