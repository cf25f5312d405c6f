"""Shared scheduler state: the EST machinery of §5.1 plus commit bookkeeping,
generalised to k memory classes and structured for incremental re-evaluation.

For a ready task ``i`` and a candidate memory ``mu`` the paper defines four
earliest-start-time components:

* ``resource_EST``   — a processor of ``mu`` must be free;
* ``precedence_EST`` — every parent finished (+ its transfer time ``C_ji``
  when the parent sits on a different memory);
* ``task_mem_EST``   — earliest ``t`` such that, from ``t`` on, ``mu`` has
  room for the task's cross-memory inputs *and* all its outputs;
* ``comm_mem_EST``   — earliest ``t`` such that, from ``t`` on, ``mu`` has
  room for the cross-memory inputs alone (the transfers land before the
  task starts).

``EST = max(resource, precedence, task_mem, comm_mem + Cmax)`` with
``Cmax = max_{cross parents j} C_ji`` (all incoming transfers are scheduled
as late as possible, sharing the window ``[EST - Cmax, EST)``; see
Algorithms 1–2).  ``EFT = EST + W^(mu)``.

**Heterogeneous processors.**  When the platform carries per-processor
``speeds``, a task with class-time ``W^(mu)`` runs for
``W^(mu) / speeds[p]`` on processor ``p``, so the resource part can no
longer collapse a class to ``min(avail)``: the kernel evaluates, per
processor of the class, ``finish(p) = max(floor, avail[p]) + W/speed(p)``
(``floor`` being the precedence/memory components, which are per-class)
and picks the processor minimising the finish time — ties broken towards
the later-available processor (less idle, mirroring :meth:`choose_proc`)
then the lower index.  The chosen processor and its duration travel in the
:class:`ESTBreakdown` and are honoured verbatim by :meth:`commit`.  A
class whose processors all share one speed takes the historical
``min(avail)`` fast path — at speed 1.0 it is bit-for-bit the paper's
arithmetic, which keeps the golden schedules byte-stable.

**Incremental EST kernel.**  The list-scheduling loops re-evaluate every
ready candidate after each commit, which in the naive formulation re-walks
every candidate's parent list and re-queries the memory staircases — the
O(n²) candidate-rescan bottleneck of §5.2.  The kernel splits each
breakdown into parts with different lifetimes:

* the *precedence part* (``precedence``, ``Cmax``, cross-input total) only
  depends on the placements of the task's parents, all committed by the
  time the task is ready — computed once per (task, memory) and cached for
  the rest of the run;
* the *memory part* (``task_mem``, ``comm_mem``) is memoised against the
  target :class:`~repro.core.memory_profile.MemoryProfile`'s ``version``
  counter, so candidates whose memory class was untouched by the last
  commit are served from cache;
* the *resource part* is the head of a per-class sorted avail structure —
  O(1) per query and maintained through :class:`_AvailVector`, which also
  reflects direct ``avail`` mutations made by branching searches.

The arithmetic itself lives in :mod:`repro.scheduling.kernel`.  The
state holds the data layout the kernel reads — the
:class:`~repro.core.graph.FlatGraph` CSR adjacency, per-row finish/class
arrays and the ``(task, class)`` fit memo — and every cached component is
bit-for-bit identical to a fresh evaluation (``incremental=False`` keeps
the from-scratch path for cross-checking and benchmarks), so the
heuristics take decision-for-decision identical schedules in both modes.

On commit the state performs the §3.2 memory bookkeeping:

* outputs allocated in ``mu`` from the task start, released later when each
  consumer is committed;
* same-memory inputs released at the task finish;
* cross-memory inputs allocated in ``mu`` for the transfer-until-finish
  window and released from the parent's memory when their transfer ends.

Each of these events is one :meth:`MemoryProfile.add` on its profile, in
edge order.

Each individual transfer is clipped to start no earlier than its producer's
finish (``max(EST - Cmax, AFT(j))``) — see DESIGN.md §4: without the clip the
paper's common window can violate its own flow constraint.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Hashable, Optional

from .. import obs
from .._util import EPS
from ..core.graph import TaskGraph
from ..obs.metrics import SIZE_BUCKETS
from ..core.memory_profile import MemoryProfile
from ..core.platform import Memory, Platform
from ..core.schedule import CommEvent, Placement, Schedule
from .kernel import (  # noqa: F401  (ESTBreakdown re-exported)
    ESTBreakdown,
    infeasible_breakdown,
    resolve_backend,
)

Task = Hashable


class InfeasibleScheduleError(RuntimeError):
    """The graph cannot be scheduled within the given memory bounds
    (the ``Error`` branch of Algorithms 1 and 2)."""


def lower_bound_from_parts(
        parts: tuple, resources: "list[float]") -> float:
    """``min_c max(resource_c, precedence_c) + W^(c)`` from the static
    pairs of :meth:`SchedulerState.est_lower_bound_parts` — the single
    implementation of the lazy-heap key (used both by
    :meth:`SchedulerState.est_lower_bound` and the candidate selectors)."""
    best = math.inf
    for ci, part in enumerate(parts):
        if part is None:
            continue
        lb = resources[ci] + part[0]
        if part[1] > lb:
            lb = part[1]
        if lb < best:
            best = lb
    return best


class _AvailVector(list):
    """Processor avail times with per-class sorted ``(avail, proc)`` views.

    Behaves as the historical plain list (the branching searches and tests
    assign ``state.avail[p] = t`` directly), but every write keeps a
    per-class sorted structure and bumps a ``version`` counter, which:

    * serves ``min(avail of class)`` in O(1) (the resource part of every
      uniform-class EST evaluation);
    * lets :meth:`SchedulerState.choose_proc` bisect the free-at-``est``
      prefix instead of scanning every processor of the class;
    * keys the :meth:`SchedulerState.class_resources` cache, so direct
      mutations invalidate it without any extra bookkeeping protocol.

    Structural list mutations (append/pop/...) are forbidden — the vector
    is born with one slot per processor and keeps them for life.
    """

    __slots__ = ("proc_classes", "by_class", "version")

    def __init__(self, values, proc_classes: tuple, n_classes: int) -> None:
        super().__init__(values)
        self.proc_classes = proc_classes
        self.version = 0
        self.by_class: list[list[tuple[float, int]]] = \
            [[] for _ in range(n_classes)]
        for p, a in enumerate(values):
            self.by_class[proc_classes[p]].append((a, p))
        for entries in self.by_class:
            entries.sort()

    def __setitem__(self, proc, value) -> None:
        if not isinstance(proc, int):
            raise TypeError("avail only supports single-processor writes")
        old = list.__getitem__(self, proc)
        value = float(value)
        if value == old:
            return
        list.__setitem__(self, proc, value)
        entries = self.by_class[self.proc_classes[proc]]
        i = bisect_left(entries, (old, proc))
        del entries[i]
        insort(entries, (value, proc))
        self.version += 1

    def class_min(self, ci: int) -> float:
        """Min avail over the processors of class ``ci`` (inf when none)."""
        entries = self.by_class[ci]
        return entries[0][0] if entries else math.inf

    def _blocked(self, *a, **kw):  # pragma: no cover - defensive
        raise TypeError("avail vector has a fixed processor count")

    append = extend = insert = pop = remove = clear = sort = reverse = _blocked
    __delitem__ = __iadd__ = __imul__ = _blocked


class SchedulerState:
    """Mutable partial schedule shared by every list-scheduling heuristic.

    Works for any number of memory classes; the paper's dual-memory
    platform is simply ``k = 2``.
    """

    def __init__(self, graph: TaskGraph, platform: Platform,
                 comm_policy: str = "late", incremental: bool = True) -> None:
        if comm_policy not in ("late", "eager"):
            raise ValueError(f"comm_policy must be 'late' or 'eager', got {comm_policy!r}")
        if graph.n_classes != platform.n_classes:
            raise ValueError(
                f"graph has {graph.n_classes} memory classes, platform "
                f"{platform.n_classes}")
        self.graph = graph
        self.platform = platform
        self.comm_policy = comm_policy
        self.incremental = incremental
        self.kernel = resolve_backend()
        self.memories = platform.memories()
        # Per class: True when all its processors share one speed (the
        # min(avail) fast path); heterogeneous classes take the
        # per-processor finish-time path.
        self._uniform = platform.uniform_classes
        self.schedule = Schedule(platform)
        self.avail: _AvailVector = _AvailVector(
            [0.0] * platform.n_procs, platform.proc_classes,
            platform.n_classes)
        self.mem: dict[Memory, MemoryProfile] = {
            m: MemoryProfile(platform.capacity(m)) for m in self.memories
        }
        # -- flat array-of-structs layout (read by the kernel) ------------
        flat = graph.flatten()
        self._flat = flat
        self._row = flat.index
        #: Per-row finish time / memory-class index of committed tasks
        #: (-1 = not committed) — the placement view the hot path indexes
        #: instead of going through Schedule.placement dict lookups.
        self._finish: list[float] = [0.0] * flat.n_tasks
        self._memidx: list[int] = [-1] * flat.n_tasks
        self._pending_parents: dict[Task, int] = {
            t: flat.parent_ptr[i + 1] - flat.parent_ptr[i]
            for i, t in enumerate(flat.order)
        }
        self._newly_ready: list[Task] = []
        # -- incremental EST caches ------------------------------------
        # per task: (precedence, cmax, cross_in, need_task) per class —
        # immutable once the task is ready (parents all committed).
        self._static: dict[Task, list[tuple[float, float, float, float]]] = {}
        # Per class: ``[profile version, {task: (task_mem, comm_fit)}]``.
        # A version bump invalidates the whole class dict at once (the
        # kernel clears it lazily on first access), so the hot path never
        # filters stale entries; commit additionally evicts the committed
        # task, bounding the memo to ready-but-uncommitted candidates.
        self._fit: list[list] = [[-1, {}] for _ in range(platform.n_classes)]
        # -- per-class dirty tracking ----------------------------------
        # Commits record which memory classes they actually mutated: one
        # serial per commit, and per class the serial of the last commit
        # that touched its profile.  The candidate selectors key their
        # reuse stamps on these (a class whose serial is unchanged has a
        # bit-identical profile), instead of chasing profile ``version``
        # counters that can bump several times within one commit.
        self.commit_serial: int = 0
        self.class_touch_serial: list[int] = [0] * platform.n_classes
        #: Class indices mutated by the most recent commit (diagnostics).
        self.last_touched_classes: tuple[int, ...] = ()
        # class_resources() cache, keyed on the avail vector's version.
        self._resources_cache: Optional[list[float]] = None
        self._resources_version: int = -1

    # ------------------------------------------------------------------
    # readiness
    # ------------------------------------------------------------------
    @property
    def n_scheduled(self) -> int:
        return len(self.schedule)

    @property
    def done(self) -> bool:
        return self.n_scheduled == self.graph.n_tasks

    def is_scheduled(self, task: Task) -> bool:
        return task in self.schedule

    def is_ready(self, task: Task) -> bool:
        """All parents scheduled, task itself not yet scheduled."""
        return task not in self.schedule and self._pending_parents[task] == 0

    def ready_roots(self) -> list[Task]:
        """All source tasks (ready at time zero)."""
        return self.graph.roots()

    def pop_newly_ready(self) -> list[Task]:
        """Tasks that became ready since the last call (after commits)."""
        out, self._newly_ready = self._newly_ready, []
        return out

    # ------------------------------------------------------------------
    # EST computation (§5.1) — arithmetic in repro.scheduling.kernel
    # ------------------------------------------------------------------
    def _infeasible(self, task: Task, memory: Memory) -> ESTBreakdown:
        return infeasible_breakdown(task, memory)

    def _finish_choice(self, memory: Memory, floor: float,
                       w: float) -> tuple[int, float, float]:
        """Per-processor finish-time minimisation for a *heterogeneous*
        class: returns ``(proc, avail[proc], duration)`` for the processor
        minimising ``max(floor, avail[p]) + w / speed(p)``.  Exact-equality
        ties prefer the later-available processor (least idle time, the
        same preference ``choose_proc`` applies on uniform classes), then
        the lower index (iteration order)."""
        avail = self.avail
        speeds = self.platform.speeds
        best_proc = -1
        best_finish = math.inf
        best_avail = -math.inf
        best_dur = math.inf
        for p in self.platform.procs(memory):
            a = avail[p]
            dur = w / speeds[p]
            finish = (a if a > floor else floor) + dur
            if finish < best_finish or (finish == best_finish
                                        and a > best_avail):
                best_proc, best_finish, best_avail, best_dur = (
                    p, finish, a, dur)
        return best_proc, best_avail, best_dur

    def _resource_choice(self, memory: Memory, precedence: float,
                         task_mem: float, comm_mem: float,
                         w: float) -> tuple[float, float, float, int]:
        """The resource/processor half of one EST evaluation, shared by
        the kernel paths: returns ``(resource, est, duration, proc)``.
        Uniform-speed classes take the class-wide ``min(avail)`` fast path
        (bit-identical to the homogeneous arithmetic at speed 1.0; the
        processor is chosen at commit time); heterogeneous ones minimise
        per-processor finish times via :meth:`_finish_choice`."""
        idx = memory.index
        if self._uniform[idx]:
            resource = self.avail.class_min(idx)
            est = max(resource, precedence, task_mem, comm_mem)
            return resource, est, w / self.platform.max_class_speeds[idx], -1
        floor = max(precedence, task_mem, comm_mem)
        proc, resource, duration = self._finish_choice(memory, floor, w)
        return resource, max(floor, resource), duration, proc

    def _precedence_parts(self, task: Task) -> list[tuple[float, float, float, float]]:
        """``(precedence, cmax, cross_in, need_task)`` per memory class.

        A single pass over the flat CSR parent arrays fills all k classes
        at once; the result is cached until the task itself commits — once
        a task is ready its parents are all placed, so these values never
        change.  The ``cross_in`` accumulation is an order-dependent
        sequential sum, so every evaluation path shares this code.
        """
        parts = self._static.get(task)
        if parts is not None:
            return parts
        k = len(self.memories)
        prec = [0.0] * k
        cmax = [0.0] * k
        cross = [0.0] * k
        flat = self._flat
        row = self._row[task]
        finish_of = self._finish
        memidx_of = self._memidx
        parent_row = flat.parent_row
        parent_comm = flat.parent_comm
        parent_size = flat.parent_size
        for e in range(flat.parent_ptr[row], flat.parent_ptr[row + 1]):
            j = parent_row[e]
            finish = finish_of[j]
            p_idx = memidx_of[j]
            c = parent_comm[e]
            size = parent_size[e]
            late = finish + c
            for ci in range(k):
                if ci == p_idx:
                    if finish > prec[ci]:
                        prec[ci] = finish
                else:
                    if late > prec[ci]:
                        prec[ci] = late
                    if c > cmax[ci]:
                        cmax[ci] = c
                    cross[ci] += size
        out_total = flat.out_size[row]
        parts = [(prec[ci], cmax[ci], cross[ci], cross[ci] + out_total)
                 for ci in range(k)]
        self._static[task] = parts
        return parts

    def est(self, task: Task, memory: Memory) -> ESTBreakdown:
        """EST/EFT breakdown of ``task`` on ``memory`` given the partial
        schedule.  Infeasible candidates get ``est = eft = inf``."""
        if not self.incremental:
            return self.kernel.evaluate_fresh(self, task, memory)
        return self.kernel.evaluate(self, task, memory)

    def class_resources(self) -> list[float]:
        """Min processor avail per memory class (``inf`` for classes without
        processors).  Served from a cache keyed on the avail vector's
        version counter — commits and direct ``avail`` writes both bump it.
        Callers must treat the returned list as read-only."""
        avail = self.avail
        if self._resources_version != avail.version:
            self._resources_cache = [avail.class_min(ci)
                                     for ci in range(len(self.memories))]
            self._resources_version = avail.version
        return self._resources_cache

    def est_lower_bound_parts(
            self, task: Task) -> tuple[Optional[tuple[float, float]], ...]:
        """Static ``(Wmin^(c), precedence_c + Wmin^(c))`` pair per class
        for a *ready* task (``None`` for classes without processors) —
        immutable for the rest of the run, so callers may cache the tuple
        and combine it with live resources via
        :func:`lower_bound_from_parts`.

        ``Wmin^(c) = W^(c) / max_speed(c)`` is keyed on the *fastest*
        processor of the class: every real assignment runs at least that
        long, so the bound stays sound on heterogeneous classes (and
        reduces to ``W^(c)`` bit-for-bit on speed-1.0 platforms)."""
        parts = self._precedence_parts(task)
        times = self._flat.times[self._row[task]]
        counts = self.platform.proc_counts
        fastest = self.platform.max_class_speeds
        out = []
        for ci in range(len(times)):
            if not counts[ci]:
                out.append(None)
                continue
            wmin = times[ci] / fastest[ci]
            out.append((wmin, parts[ci][0] + wmin))
        return tuple(out)

    def est_lower_bound(self, task: Task,
                        resources: Optional[list[float]] = None) -> float:
        """Memory-free lower bound on ``best_est(task).eft`` for a *ready*
        task: ``min_c max(resource_c, precedence_c) + W^(c)``.

        Unlike a cached EFT — whose memory components can *drop* when a
        commit releases memory — this bound only ever grows (precedence is
        immutable once the task is ready, resources only advance), which is
        what makes it a sound lazy-heap key
        (:class:`repro.scheduling.candidates.MinEFTSelector`).
        """
        if resources is None:
            resources = self.class_resources()
        return lower_bound_from_parts(self.est_lower_bound_parts(task),
                                      resources)

    def best_est(self, task: Task) -> Optional[ESTBreakdown]:
        """The memory choice minimising EFT (§5.1 memory-selection phase);
        ties go to the lowest class index (blue in the dual case).
        ``None`` when no memory is feasible."""
        best: Optional[ESTBreakdown] = None
        for memory in self.memories:
            bd = self.est(task, memory)
            if not bd.feasible:
                continue
            if best is None or bd.eft < best.eft - EPS:
                best = bd
        return best

    # ------------------------------------------------------------------
    # processor selection (§5.1)
    # ------------------------------------------------------------------
    def choose_proc(self, memory: Memory, est: float) -> int:
        """Processor of ``memory`` minimising idle time ``est - avail[p]``
        among those already free at ``est`` (ties: lowest index).

        Served from the avail vector's per-class sorted view: the
        free-at-``est`` prefix comes from one bisect and only *its*
        processors replay the historical index-order EPS-chain, instead of
        scanning every processor of the class per commit.

        Only meaningful on *uniform-speed* classes, where every free
        processor finishes the task at the same time; heterogeneous
        breakdowns pre-select their processor in :meth:`est`
        (``breakdown.proc``) and bypass this method at commit time."""
        entries = self.avail.by_class[memory.index]
        # All (a, p) with a <= est + EPS: bisecting with a proc sentinel
        # above any real index keeps a == est + EPS entries inside.
        hi = bisect_right(entries, (est + EPS, self.platform.n_procs))
        best_proc = -1
        best_avail = -math.inf
        for a, p in sorted(entries[:hi], key=itemgetter(1)):
            if a > best_avail + EPS:
                best_avail = a
                best_proc = p
        if best_proc < 0:  # pragma: no cover - est >= resource_EST prevents this
            raise RuntimeError("no processor available at the chosen EST")
        return best_proc

    # ------------------------------------------------------------------
    # commit (memory bookkeeping of §3.2)
    # ------------------------------------------------------------------
    def commit(self, breakdown: ESTBreakdown) -> Placement:
        """Apply one scheduling decision; returns the new placement."""
        task, memory, est = breakdown.task, breakdown.memory, breakdown.est
        if not math.isfinite(est):
            raise ValueError(f"cannot commit infeasible candidate for {task!r}")
        finish = est + breakdown.duration
        proc = (breakdown.proc if breakdown.proc >= 0
                else self.choose_proc(memory, est))
        placement = Placement(task=task, proc=proc, memory=memory,
                              start=est, finish=finish)
        self.schedule.add(placement)
        self.avail[proc] = finish

        flat = self._flat
        row = self._row[task]
        self._finish[row] = finish
        self._memidx[row] = memory.index

        midx = memory.index
        dest = self.mem[memory]
        touched: set[int] = set()
        # Outputs resident in mu from the task start until each consumer is
        # committed (release scheduled then).
        out_total = flat.out_size[row]
        if out_total > 0.0:
            dest.add(out_total, est, None)
            touched.add(midx)

        order = flat.order
        parent_row = flat.parent_row
        for e in range(flat.parent_ptr[row], flat.parent_ptr[row + 1]):
            j = parent_row[e]
            p_finish = self._finish[j]
            p_idx = self._memidx[j]
            size = flat.parent_size[e]
            if p_idx == midx:
                # Same-memory input: freed when this task finishes.
                if size > 0.0:
                    dest.add(-size, finish, None)
                    touched.add(midx)
            else:
                # Cross-memory input transfer.  "late" (the paper's policy):
                # share the window [EST - Cmax, EST), clipped to the
                # producer's finish.  "eager" (ablation): fire as soon as the
                # destination has room, again no earlier than the producer.
                if self.comm_policy == "late":
                    # EST >= comm_fit + Cmax, but ``EST - Cmax`` can round
                    # to one ulp below comm_fit on fractional times, which
                    # would start the copy inside the still-full segment;
                    # comm_fit is the exact fit breakpoint, so clip to it.
                    comm_start = max(est - breakdown.cmax, p_finish,
                                     breakdown.comm_fit)
                    comm_end = est
                else:
                    comm_start = max(breakdown.comm_fit, p_finish)
                    comm_end = comm_start + flat.parent_comm[e]
                self.schedule.add_comm(
                    CommEvent(src=order[j], dst=task, start=comm_start,
                              finish=comm_end)
                )
                if size > 0.0:
                    # Destination copy lives for transfer + execution.
                    dest.add(size, comm_start, finish)
                    # Source copy freed when the transfer completes.
                    self.mem[self.memories[p_idx]].add(-size, comm_end, None)
                    touched.add(midx)
                    touched.add(p_idx)

        # Record which classes this commit actually mutated.
        self.commit_serial += 1
        for ci in touched:
            self.class_touch_serial[ci] = self.commit_serial
        self.last_touched_classes = tuple(sorted(touched))

        # Drop the committed task's cached EST components (it will never be
        # a candidate again) — this bounds the _static/_fit memos to the
        # live candidate set; profile-version keys invalidate the rest.
        self._static.pop(task, None)
        for slot in self._fit:
            slot[1].pop(task, None)

        # readiness propagation over the flat child CSR
        pending = self._pending_parents
        child_row = flat.child_row
        for e in range(flat.child_ptr[row], flat.child_ptr[row + 1]):
            child = order[child_row[e]]
            pending[child] -= 1
            if pending[child] == 0:
                self._newly_ready.append(child)

        return placement

    def copy(self) -> "SchedulerState":
        """Deep-enough copy for branching searches (profiles duplicated)."""
        clone = SchedulerState.__new__(SchedulerState)
        clone.graph = self.graph
        clone.platform = self.platform
        clone.comm_policy = self.comm_policy
        clone.incremental = self.incremental
        clone.kernel = self.kernel
        clone.memories = self.memories
        clone._uniform = self._uniform
        clone.schedule = self.schedule.copy()
        clone.avail = _AvailVector(list(self.avail),
                                   self.platform.proc_classes,
                                   self.platform.n_classes)
        clone.mem = {m: p.copy() for m, p in self.mem.items()}
        clone._flat = self._flat
        clone._row = self._row
        clone._finish = list(self._finish)
        clone._memidx = list(self._memidx)
        clone._pending_parents = dict(self._pending_parents)
        clone._newly_ready = list(self._newly_ready)
        clone._static = dict(self._static)
        clone._fit = [[ver, dict(d)] for ver, d in self._fit]
        clone.commit_serial = self.commit_serial
        clone.class_touch_serial = list(self.class_touch_serial)
        clone.last_touched_classes = self.last_touched_classes
        clone._resources_cache = None
        clone._resources_version = -1
        return clone

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def peaks(self) -> dict[Memory, float]:
        """Memory peaks of the partial schedule (scheduler-side accounting)."""
        return {m: self.mem[m].peak() for m in self.memories}

    def check_invariants(self) -> None:
        for m in self.memories:
            self.mem[m].check_invariants()

    def finalize(self, algorithm: str) -> Schedule:
        """Stamp diagnostics onto the completed schedule and return it."""
        self.check_invariants()
        peaks = self.peaks()
        self.schedule.meta.update(
            algorithm=algorithm,
            peaks=[peaks[m] for m in self.memories],
        )
        if len(self.memories) == 2:
            self.schedule.meta.update(
                peak_blue=peaks[Memory.BLUE],
                peak_red=peaks[Memory.RED],
            )
        st = obs.active()
        if st is not None:
            st.registry.counter("memsched_schedules_finalized_total",
                                algorithm=algorithm).inc()
            st.registry.histogram(
                "memsched_schedule_tasks", buckets=SIZE_BUCKETS,
                algorithm=algorithm).observe(self.graph.n_tasks)
        return self.schedule
