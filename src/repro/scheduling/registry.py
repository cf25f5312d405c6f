"""Name-based scheduler lookup used by the CLI and the experiment harness.

Every registered heuristic runs on the unified k-memory engine: pass a
``TaskGraph``/``Platform`` pair with any matching number of memory classes
(the dual-memory paper setup is simply ``k = 2``).
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from .heft import heft
from .memheft import memheft
from .memminmin import memminmin
from .minmin import minmin
from .sufferage import memsufferage, sufferage


class Scheduler(Protocol):
    def __call__(self, graph: TaskGraph, platform: Platform) -> Schedule: ...


#: All scheduling heuristics by canonical name.
SCHEDULERS: dict[str, Callable[..., Schedule]] = {
    "heft": heft,
    "minmin": minmin,
    "sufferage": sufferage,
    "memheft": memheft,
    "memminmin": memminmin,
    "memsufferage": memsufferage,
}

#: The two memory-aware heuristics contributed by the paper (memsufferage
#: is this library's extension, see repro.scheduling.sufferage).
MEMORY_AWARE = ("memheft", "memminmin")
#: The memory-oblivious reference heuristics (the paper's comparison pair).
BASELINES = ("heft", "minmin")
#: Every memory-oblivious heuristic (unbounded-memory specialisations).
MEMORY_OBLIVIOUS = ("heft", "minmin", "sufferage")
#: Heuristics taking the engine option ``comm_policy=`` — consumers (e.g.
#: ``repro.service``) must key capability checks on these tuples, not
#: hand-maintained copies, so new registry entries are advertised
#: correctly.  (The service's ``lazy`` wire option is still accepted for
#: these, but no longer reaches the library: there is one selector per
#: heuristic.)
ENGINE_OPTIONED = ("memheft", "memminmin", "memsufferage")


def get_scheduler(name: str) -> Callable[..., Schedule]:
    """Look up a scheduler by name (case-insensitive)."""
    try:
        return SCHEDULERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(f"unknown scheduler {name!r}; known: {known}") from None
