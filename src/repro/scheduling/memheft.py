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

The "first ready task in rank order that fits" query walks the *ready*
tasks only, kept in rank order
(:class:`~repro.scheduling.candidates.ScanSelector` with
:func:`~repro.scheduling.candidates.first_fit`), driven by the one loop
of :mod:`repro.scheduling.driver`.
"""

from __future__ import annotations

import time

from .. import obs
from .._util import RngLike
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .candidates import ScanSelector, first_fit
from .driver import run
from .ranks import rank_order
from .state import SchedulerState


def memheft(graph: TaskGraph, platform: Platform, *, rng: RngLike = None,
            comm_policy: str = "late") -> Schedule:
    """Schedule ``graph`` on ``platform`` with MemHEFT.

    ``comm_policy`` selects when incoming transfers fire: ``"late"`` (the
    paper's choice) or ``"eager"`` (ablation, see
    :mod:`repro.experiments.ablation`).

    The upward ranks are speed-aware: on heterogeneous platforms each
    class's execution term is normalised by its fastest processor (a no-op
    on the paper's speed-1.0 platforms).

    Raises
    ------
    InfeasibleScheduleError
        When the heuristic cannot fit the graph within the memory bounds.
    """
    state = SchedulerState(graph, platform, comm_policy=comm_policy)

    def make_selector():
        return ScanSelector(state, _rank_positions(graph, rng, platform),
                            first_fit)

    return run(state, make_selector, "memheft", lambda left: (
        "MemHEFT: no remaining task fits within the memory bounds "
        f"({left} tasks left, capacities={list(platform.capacities)})"))


def _rank_positions(graph: TaskGraph, rng: RngLike,
                    platform: Platform) -> dict:
    """Each task's position in the priority list (phase 1).  Under
    :mod:`repro.obs` it runs in a ``rank`` span and is counted as the
    ``rank`` phase."""
    st = obs.active()
    t0 = time.perf_counter() if st is not None else 0.0
    with obs.span("rank"):
        order = rank_order(graph, rng=rng, platform=platform)
    if st is not None:
        st.registry.counter("memsched_phase_seconds_total",
                            algorithm="memheft",
                            phase="rank").inc(time.perf_counter() - t0)
    return {t: k for k, t in enumerate(order)}
