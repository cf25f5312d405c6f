"""Schedule representation: the triple ``(sigma, tau, proc)`` of §3.1.

A :class:`Schedule` maps every task to a :class:`Placement` (processor,
memory, start, finish) and every *cross-memory* edge to a :class:`CommEvent`
(the transfer window).  Same-memory edges have no communication event —
their transfer is instantaneous in the model.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Iterator, NamedTuple, Optional

from .platform import Memory, Platform

Task = Hashable


class Placement(NamedTuple):
    """Where and when one task executes (immutable; a NamedTuple because
    the schedulers build one per commit)."""

    task: Task
    proc: int
    memory: Memory
    start: float
    finish: float

    @property
    def cls(self) -> int:
        """Memory-class index (generic alias for ``memory.index``)."""
        return self.memory.index

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def overlaps(self, other: "Placement") -> bool:
        """Whether the two execution windows overlap (open intervals)."""
        return self.start < other.finish and other.start < self.finish


class CommEvent(NamedTuple):
    """Transfer of the file on edge ``(src, dst)`` between two memories."""

    src: Task
    dst: Task
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Schedule:
    """A complete mapping of a task graph onto a platform.

    The schedule also carries a free-form ``meta`` dict used by the
    schedulers to report diagnostics (algorithm name, memory peaks, ...).
    """

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._placements: dict[Task, Placement] = {}
        self._comms: dict[tuple[Task, Task], CommEvent] = {}
        self.meta: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, placement: Placement) -> None:
        if placement.task in self._placements:
            raise ValueError(f"task {placement.task!r} already placed")
        platform = self.platform
        if not 0 <= placement.proc < platform.n_procs:
            raise ValueError(f"processor {placement.proc} out of range")
        if platform.proc_memories[placement.proc] is not placement.memory:
            raise ValueError(
                f"processor {placement.proc} is not attached to memory {placement.memory}"
            )
        # One chained comparison: NaN fails every comparison, so a NaN
        # start or finish is rejected along with negative, reversed and
        # unbounded windows.
        if not 0.0 <= placement.start <= placement.finish < math.inf:
            raise ValueError(
                f"invalid execution window for {placement.task!r}: "
                f"[{placement.start!r}, {placement.finish!r}]")
        self._placements[placement.task] = placement

    def add_comm(self, event: CommEvent) -> None:
        key = (event.src, event.dst)
        if key in self._comms:
            raise ValueError(f"communication {key!r} already scheduled")
        if not 0.0 <= event.start <= event.finish < math.inf:
            raise ValueError(
                f"invalid communication window for {key!r}: "
                f"[{event.start!r}, {event.finish!r}]")
        self._comms[key] = event

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, task: Task) -> bool:
        return task in self._placements

    def __len__(self) -> int:
        return len(self._placements)

    def placement(self, task: Task) -> Placement:
        return self._placements[task]

    def placements(self) -> Iterator[Placement]:
        return iter(self._placements.values())

    def comm(self, src: Task, dst: Task) -> Optional[CommEvent]:
        return self._comms.get((src, dst))

    def comms(self) -> Iterator[CommEvent]:
        return iter(self._comms.values())

    @property
    def n_comms(self) -> int:
        return len(self._comms)

    def memory_of(self, task: Task) -> Memory:
        return self._placements[task].memory

    def start(self, task: Task) -> float:
        return self._placements[task].start

    def finish(self, task: Task) -> float:
        return self._placements[task].finish

    @property
    def makespan(self) -> float:
        """Finish time of the last task (0 for an empty schedule)."""
        return max((p.finish for p in self._placements.values()), default=0.0)

    def tasks_on_proc(self, proc: int) -> list[Placement]:
        """Placements on one processor, ordered by start time."""
        rows = [p for p in self._placements.values() if p.proc == proc]
        rows.sort(key=lambda p: (p.start, p.finish))
        return rows

    def tasks_on_memory(self, memory: Memory) -> list[Placement]:
        """Placements on one memory, ordered by start time."""
        rows = [p for p in self._placements.values() if p.memory is memory]
        rows.sort(key=lambda p: (p.start, p.finish))
        return rows

    def proc_busy_time(self, proc: int) -> float:
        """Total execution time scheduled on ``proc``."""
        return sum(p.duration for p in self._placements.values() if p.proc == proc)

    def copy(self) -> "Schedule":
        """Shallow copy (placements and events are immutable)."""
        clone = Schedule(self.platform)
        clone._placements = dict(self._placements)
        clone._comms = dict(self._comms)
        clone.meta = dict(self.meta)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(n_tasks={len(self._placements)}, n_comms={len(self._comms)}, "
            f"makespan={self.makespan:g})"
        )
