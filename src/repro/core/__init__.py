"""Core model: platform, task graph, schedules, memory profiles, validation,
makespan lower bounds.

The LP split-work bound needs ``numpy``/``scipy``, which are *optional*
dependencies of the core library: :mod:`repro.core.bounds` imports them
on its first LP call, so importing this package loads neither.
"""

from .bounds import (
    critical_path_lower_bound,
    lower_bound,
    memory_lower_bound,
    schedulable_memory,
    split_work_lower_bound,
    work_lower_bound,
)
from .graph import TaskGraph
from .memory_profile import MemoryProfile
from .platform import MEMORIES, Memory, Platform
from .schedule import CommEvent, Placement, Schedule
from .trace import TraceEvent, format_trace, memory_timeline, trace_schedule
from .validation import (
    FileResidency,
    ScheduleError,
    file_residencies,
    is_valid,
    memory_peaks,
    memory_usage,
    validate_schedule,
)

__all__ = [
    "TaskGraph",
    "MemoryProfile",
    "Memory",
    "MEMORIES",
    "Platform",
    "Schedule",
    "Placement",
    "CommEvent",
    "ScheduleError",
    "FileResidency",
    "file_residencies",
    "memory_usage",
    "memory_peaks",
    "validate_schedule",
    "is_valid",
    "lower_bound",
    "critical_path_lower_bound",
    "work_lower_bound",
    "split_work_lower_bound",
    "memory_lower_bound",
    "schedulable_memory",
    "TraceEvent",
    "trace_schedule",
    "format_trace",
    "memory_timeline",
]

