"""Scheduling heuristics: MemHEFT, MemMinMin and their classical baselines."""

from .candidates import MinEFTSelector, ScanSelector
from .heft import heft
from .memheft import memheft
from .memminmin import memminmin
from .minmin import minmin
from .ranks import rank_order, upward_ranks
from .registry import (
    BASELINES,
    ENGINE_OPTIONED,
    MEMORY_AWARE,
    MEMORY_OBLIVIOUS,
    SCHEDULERS,
    get_scheduler,
)
from .state import ESTBreakdown, InfeasibleScheduleError, SchedulerState
from .sufferage import memsufferage, sufferage

__all__ = [
    "heft",
    "minmin",
    "sufferage",
    "memheft",
    "memminmin",
    "memsufferage",
    "upward_ranks",
    "rank_order",
    "SchedulerState",
    "ESTBreakdown",
    "MinEFTSelector",
    "ScanSelector",
    "InfeasibleScheduleError",
    "SCHEDULERS",
    "MEMORY_AWARE",
    "BASELINES",
    "MEMORY_OBLIVIOUS",
    "ENGINE_OPTIONED",
    "get_scheduler",
]
