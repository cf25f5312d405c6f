"""Independent schedule validator / replay simulator.

Replays a :class:`~repro.core.schedule.Schedule` against its
:class:`~repro.core.graph.TaskGraph` and :class:`~repro.core.platform.Platform`
and checks every constraint of the model (§3):

* **completeness** — every task placed exactly once, durations match the
  per-memory processing times scaled by the assigned processor's speed
  (``W^(c) / speed(p)``; speed is 1.0 everywhere on the paper's
  homogeneous platforms);
* **flow** (§3.1) — producers finish before transfers start, transfers finish
  before consumers start, same-memory edges respect precedence directly, and
  every transfer window is at least ``C_ij`` long;
* **resource** (§3.1) — tasks sharing a processor never overlap;
* **memory** (§3.2) — the file-residency timeline never exceeds either
  capacity.  File residency follows the paper exactly: an output file lives in
  the producer's memory from the producer's start; a same-memory input is
  freed when the consumer finishes; a cross-memory file additionally lives in
  the destination memory from the start of its transfer until the consumer
  finishes, and its source copy is freed when the transfer ends.

The validator is written independently from the scheduler-side bookkeeping so
tests can cross-check the two (README, "Design invariants").  In particular
:func:`validate_schedule` and :func:`memory_peaks` never call the scheduler's
:class:`~repro.core.memory_profile.MemoryProfile` (only :func:`memory_usage`
returns profiles): they replay peaks on a list staircase of their own
(:func:`_replay_peak`), which sums in the same order and so gives the
profiles' peaks bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable

from .graph import TaskGraph
from .memory_profile import MemoryProfile
from .platform import Memory, Platform
from .schedule import Schedule

Task = Hashable


class ScheduleError(ValueError):
    """A schedule violates the model; the message names the constraint."""


@dataclass(frozen=True)
class FileResidency:
    """One stay of one file in one memory: ``[start, end)``."""

    src: Task
    dst: Task
    memory: Memory
    size: float
    start: float
    end: float


def file_residencies(graph: TaskGraph, schedule: Schedule) -> list[FileResidency]:
    """Every interval during which an edge file occupies a memory."""
    out: list[FileResidency] = []
    for u, v in graph.edges():
        size = graph.size(u, v)
        if size == 0.0:
            continue
        pu = schedule.placement(u)
        pv = schedule.placement(v)
        if pu.memory is pv.memory:
            out.append(FileResidency(u, v, pu.memory, size, pu.start, pv.finish))
        else:
            ev = schedule.comm(u, v)
            if ev is None:
                raise ScheduleError(f"cross-memory edge ({u!r}, {v!r}) has no communication")
            out.append(FileResidency(u, v, pu.memory, size, pu.start, ev.finish))
            out.append(FileResidency(u, v, pv.memory, size, ev.start, pv.finish))
    return out


def memory_usage(graph: TaskGraph, platform: Platform, schedule: Schedule
                 ) -> dict[Memory, MemoryProfile]:
    """Used-memory staircases of every memory, rebuilt from the schedule."""
    profiles = {m: MemoryProfile(platform.capacity(m))
                for m in platform.memories()}
    for res in file_residencies(graph, schedule):
        profiles[res.memory].add(res.size, res.start, res.end)
    return profiles


def _replay_peak(rows: list[tuple[float, float, float]]) -> float:
    """Peak of one memory's ``(size, start, end)`` residencies, given in
    edge order with ``end > start``.

    Each segment between consecutive breakpoints sums the sizes of the
    residencies covering it in list order, starting from 0.0 — exactly the
    fold ``MemoryProfile.add`` leaves there — so the maximum is the same
    float.  The last breakpoint opens the empty tail (0.0), as in a profile.
    """
    if not rows:
        return 0.0
    xs = sorted({x for _, start, end in rows for x in (start, end)})
    at = {x: k for k, x in enumerate(xs)}
    vals = [0.0] * len(xs)
    for size, start, end in rows:
        for k in range(at[start], at[end]):
            vals[k] += size
    return max(vals)


def memory_peaks(graph: TaskGraph, platform: Platform, schedule: Schedule
                 ) -> dict[Memory, float]:
    """Peak usage of each memory (``M^s_blue``, ``M^s_red`` of §3.3)."""
    rows: dict[Memory, list] = {m: [] for m in platform.memories()}
    for res in file_residencies(graph, schedule):
        if res.end > res.start:   # MemoryProfile.add ignores empty stays
            rows[res.memory].append((res.size, res.start, res.end))
    return {m: _replay_peak(r) for m, r in rows.items()}


#: The order of :meth:`Schedule.tasks_on_proc`.
_start_finish = attrgetter("start", "finish")


def validate_schedule(
    graph: TaskGraph,
    platform: Platform,
    schedule: Schedule,
    *,
    check_memory: bool = True,
    eps: float = 1e-6,
) -> dict[Memory, float]:
    """Check every model constraint; returns the memory peaks on success.

    Raises :class:`ScheduleError` naming the first violated constraint.
    Tasks are checked in graph order, then edges in :meth:`TaskGraph.edges`
    order (one walk that also collects the file residencies), then
    processors, then memories.
    """
    # The containers themselves: one dict lookup per task and per edge.
    placements = schedule._placements
    comms = schedule._comms
    times = graph._times
    succ = graph._succ
    proc_ranges = [platform.procs(c) for c in platform.classes()]
    speeds = platform.speeds

    # -- completeness and durations ------------------------------------
    for task, task_times in times.items():
        p = placements.get(task)
        if p is None:
            raise ScheduleError(f"task {task!r} is not scheduled")
        memory = p.memory
        procs = proc_ranges[memory.index]
        if not procs:
            raise ScheduleError(f"task {task!r} placed on empty resource {memory}")
        if p.proc not in procs:
            # Must precede the duration check: the expected duration reads
            # the *processor's* speed, which is only meaningful when the
            # processor actually belongs to the placement's memory class.
            raise ScheduleError(
                f"task {task!r} placed on processor {p.proc}, which is not "
                f"attached to memory {memory}"
            )
        expect = task_times[memory.index] / speeds[p.proc]
        if abs(p.finish - p.start - expect) > eps:
            raise ScheduleError(
                f"task {task!r} runs for {p.duration} but "
                f"W^({memory}) / speed(P{p.proc}) = {expect}"
            )

    if len(placements) != len(times):
        extra = set(placements) - set(times)
        raise ScheduleError(f"schedule places unknown tasks: {sorted(map(repr, extra))}")

    # -- flow constraints, collecting file residencies -----------------
    rows: list[list[tuple[float, float, float]]] = [[] for _ in proc_ranges]
    matched = 0
    for u, nbrs in succ.items():
        pu = placements[u]
        mu = pu.memory
        u_rows = rows[mu.index]
        for v, (size, comm) in nbrs.items():
            pv = placements[v]
            if mu is pv.memory:
                if (u, v) in comms:
                    raise ScheduleError(f"same-memory edge ({u!r}, {v!r}) has a communication")
                if pu.finish > pv.start + eps:
                    raise ScheduleError(
                        f"precedence violated on ({u!r}, {v!r}): "
                        f"{pu.finish} > {pv.start}"
                    )
                if size != 0.0 and pv.finish > pu.start:
                    u_rows.append((size, pu.start, pv.finish))
                continue
            ev = comms.get((u, v))
            if ev is None:
                raise ScheduleError(f"cross-memory edge ({u!r}, {v!r}) has no communication")
            matched += 1
            if ev.start < pu.finish - eps:
                raise ScheduleError(
                    f"communication ({u!r}, {v!r}) starts at {ev.start} "
                    f"before producer finishes at {pu.finish}"
                )
            if ev.finish > pv.start + eps:
                raise ScheduleError(
                    f"communication ({u!r}, {v!r}) ends at {ev.finish} "
                    f"after consumer starts at {pv.start}"
                )
            if ev.finish - ev.start < comm - eps:
                raise ScheduleError(
                    f"communication ({u!r}, {v!r}) lasts {ev.duration} "
                    f"< C = {comm}"
                )
            if size != 0.0:
                if ev.finish > pu.start:
                    u_rows.append((size, pu.start, ev.finish))
                if pv.finish > ev.start:
                    rows[pv.memory.index].append((size, ev.start, pv.finish))
    if matched != len(comms):
        u, v = next(key for key in comms
                    if key[0] not in succ or key[1] not in succ[key[0]])
        raise ScheduleError(
            f"communication ({u!r}, {v!r}) is not on an edge of the graph")

    # -- resource constraints --------------------------------------------
    on_proc: list[list] = [[] for _ in range(platform.n_procs)]
    for p in placements.values():
        on_proc[p.proc].append(p)
    for proc, placed in enumerate(on_proc):
        placed.sort(key=_start_finish)
        for a, b in zip(placed, placed[1:]):
            if b.start < a.finish - eps:
                raise ScheduleError(
                    f"tasks {a.task!r} and {b.task!r} overlap on processor {proc}: "
                    f"[{a.start}, {a.finish}) vs [{b.start}, {b.finish})"
                )

    # -- memory constraints ----------------------------------------------
    peaks = {m: _replay_peak(rows[m.index]) for m in platform.memories()}
    if check_memory:
        for memory in platform.memories():
            if peaks[memory] > platform.capacity(memory) + eps:
                raise ScheduleError(
                    f"{memory} memory peak {peaks[memory]} exceeds capacity "
                    f"{platform.capacity(memory)}"
                )
    return peaks


def is_valid(graph: TaskGraph, platform: Platform, schedule: Schedule,
             *, check_memory: bool = True) -> bool:
    """Boolean convenience wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(graph, platform, schedule, check_memory=check_memory)
    except ScheduleError:
        return False
    return True
