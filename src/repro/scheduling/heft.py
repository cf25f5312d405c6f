"""HEFT baseline (Topcuoglu et al. 2002), memory-oblivious.

As the paper notes (§6.2.1), MemHEFT takes *exactly* the same decisions as
classical HEFT when both memories are large enough, so the baseline is
MemHEFT run with unbounded memory bounds — while still tracking usage, which
gives the per-graph peaks ``M^HEFT_blue`` / ``M^HEFT_red`` that normalise the
memory axis of Figures 10–15.
"""

from __future__ import annotations

from .._util import RngLike
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .memheft import memheft


def heft(graph: TaskGraph, platform: Platform, *,
         rng: RngLike = None) -> Schedule:
    """Schedule with classical (memory-oblivious) HEFT.

    The returned schedule's ``meta`` carries ``peak_blue`` / ``peak_red``:
    the memory the schedule *would* need, used as the normalisation
    reference in the paper's experiments.
    """
    schedule = memheft(graph, platform.unbounded(), rng=rng)
    schedule.meta["algorithm"] = "heft"
    return schedule
