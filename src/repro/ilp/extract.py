"""Turn an ILP solution vector into a :class:`~repro.core.schedule.Schedule`.

The ILP encodes processor indices only through continuous ``p`` variables
and pairwise separation indicators, so the extraction re-derives a concrete
processor assignment per memory with a greedy interval scheduling pass —
constraint (25) guarantees that at most ``P_mu`` tasks of one memory overlap
at any instant, hence the greedy pass always succeeds (Helly property of
intervals).
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..core.platform import Memory
from ..core.schedule import CommEvent, Placement, Schedule
from .model import ILPModel

Task = Hashable

#: Snap solver round-off below this threshold.  HiGHS meets rows only to its
#: feasibility tolerance (1e-6), so event times come back up to about 1e-6
#: off; a tighter snap leaves back-to-back tasks overlapping by that much.
_SNAP = 1e-5


def _clean(value: float) -> float:
    if abs(value) < _SNAP:
        return 0.0
    r = round(value)
    if abs(value - r) < _SNAP:
        return float(r)
    return float(value)


def extract_schedule(model: ILPModel, x: np.ndarray) -> Schedule:
    """Build the schedule described by solution vector ``x``."""
    v = model.vars
    graph, platform = model.graph, model.platform
    schedule = Schedule(platform)

    memory: dict[Task, Memory] = {}
    start: dict[Task, float] = {}
    for t in model.tasks:
        b = x[v[("b", t)]]
        memory[t] = Memory.BLUE if b > 0.5 else Memory.RED
        start[t] = _clean(x[v[("t", t)]])

    # Greedy per-memory processor assignment (earliest-start order; reuse the
    # processor that frees up last among those free by the task's start).
    for mem in (Memory.BLUE, Memory.RED):
        procs = list(platform.procs(mem))
        free_at = {p: 0.0 for p in procs}
        rows = sorted((t for t in model.tasks if memory[t] is mem),
                      key=lambda t: (start[t], start[t] + graph.w(t, mem)))
        for t in rows:
            s = start[t]
            w = graph.w(t, mem)
            candidates = [p for p in procs if free_at[p] <= s + 1e-6]
            if not candidates:
                raise ValueError(
                    f"ILP solution needs more than {len(procs)} {mem} processors "
                    f"at time {s} — constraint (25) violated by the solver output"
                )
            proc = max(candidates, key=free_at.__getitem__)
            free_at[proc] = s + w
            schedule.add(Placement(task=t, proc=proc, memory=mem,
                                   start=s, finish=s + w))

    for e in model.edges:
        i, j = e
        if memory[i] is memory[j]:
            continue
        tau = _clean(x[v[("tau", e)]])
        schedule.add_comm(CommEvent(src=i, dst=j, start=tau,
                                    finish=tau + graph.comm(i, j)))

    schedule.meta.update(
        algorithm="ilp",
        objective=_clean(float(x[v[("M",)]])),
    )
    return schedule
