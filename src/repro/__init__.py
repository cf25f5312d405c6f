"""repro — Memory-aware list scheduling for hybrid platforms.

Reproduction of Herrmann, Marchal & Robert, INRIA RR-8461 (2014):
scheduling task graphs on a platform with several processor/memory classes
(e.g. CPUs + GPUs) so as to minimise the makespan without exceeding any
memory capacity.

The engine is a **single k-memory core**: :class:`~repro.core.platform.
Platform`, :class:`~repro.core.graph.TaskGraph`, :class:`~repro.core.
schedule.Schedule` and :class:`~repro.scheduling.state.SchedulerState` are
parametric over the number of memory classes.  The paper's dual-memory
platform is the ``k = 2`` special case, with ``Memory.BLUE``/``Memory.RED``
and the ``n_blue``/``mem_blue``-style accessors preserved as a thin
compatibility facade; k-memory platforms (the paper's §7 extension) use
the same entry points.  The three memory-aware heuristics share one
select→commit loop (:mod:`repro.scheduling.driver`) and differ only in
their selection rule.  The EST kernel of §5.1 is *incremental*:
per-(task, memory) breakdown components are cached across the list-scan
iterations and only candidates affected by the last commit are re-evaluated
(see :mod:`repro.scheduling.kernel`), with block-decomposed
``earliest_fit`` queries and amortized staircase compaction in
:mod:`repro.core.memory_profile`.

Quickstart::

    from repro import Platform, memheft, validate_schedule
    from repro.dags import dex

    graph = dex()                                   # the paper's toy DAG
    platform = Platform(n_blue=1, n_red=1, mem_blue=5, mem_red=5)
    schedule = memheft(graph, platform)
    peaks = validate_schedule(graph, platform, schedule)
    print(schedule.makespan, peaks)

k-memory platforms use the same entry points, and processors inside a
class may carry relative speeds (heterogeneous SKUs; task ``i`` on
processor ``p`` of class ``c`` runs ``W^(c)_i / speeds[p]``, all-1.0 being
the paper's homogeneous model)::

    platform = Platform([12, 3, 1], [64, 16, 8])    # CPU + 2 accelerator pools
    graph = TaskGraph("tri", n_classes=3)           # times= per class
    mixed = Platform(2, 1, 40, 40, speeds=[1.0, 0.5, 2.0])

For long-lived use, :mod:`repro.service` wraps the engine in a
JSON-over-HTTP scheduling service, on the standard library's
:mod:`http.server`, with a content-addressed schedule cache
(``memsched serve`` / ``memsched submit``); see the top-level README for
the protocol.
"""

from .core import (
    MEMORIES,
    CommEvent,
    Memory,
    MemoryProfile,
    Placement,
    Platform,
    Schedule,
    ScheduleError,
    TaskGraph,
    critical_path_lower_bound,
    is_valid,
    lower_bound,
    memory_peaks,
    memory_usage,
    validate_schedule,
)
from .scheduling import (
    BASELINES,
    MEMORY_AWARE,
    SCHEDULERS,
    InfeasibleScheduleError,
    get_scheduler,
    heft,
    memheft,
    memminmin,
    memsufferage,
    minmin,
    rank_order,
    sufferage,
    upward_ranks,
)

__version__ = "1.0.0"

__all__ = [
    "TaskGraph",
    "Platform",
    "Memory",
    "MEMORIES",
    "Schedule",
    "Placement",
    "CommEvent",
    "MemoryProfile",
    "ScheduleError",
    "InfeasibleScheduleError",
    "validate_schedule",
    "is_valid",
    "memory_usage",
    "memory_peaks",
    "lower_bound",
    "critical_path_lower_bound",
    "heft",
    "minmin",
    "sufferage",
    "memheft",
    "memminmin",
    "memsufferage",
    "upward_ranks",
    "rank_order",
    "SCHEDULERS",
    "MEMORY_AWARE",
    "BASELINES",
    "get_scheduler",
    "__version__",
]
