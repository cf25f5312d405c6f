"""MinMin baseline (Braun et al. 2001), memory-oblivious.

MemMinMin with unbounded memories: at each step pick the available task with
the smallest completion time on its best resource.
"""

from __future__ import annotations

from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .memminmin import memminmin


def minmin(graph: TaskGraph, platform: Platform) -> Schedule:
    """Schedule with classical (memory-oblivious) MinMin."""
    schedule = memminmin(graph, platform.unbounded())
    schedule.meta["algorithm"] = "minmin"
    return schedule
