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
* the *memory part* (``task_mem``, ``comm_mem``) only moves when a commit
  moves the target :class:`~repro.core.memory_profile.MemoryProfile`,
  which bumps its ``version`` counter;
* the *resource part* is the class's minimum avail time, read in O(1)
  from :class:`_AvailVector`'s ``mins``, which every ``avail`` write
  recomputes (commits and the direct writes of branching searches
  alike).

The arithmetic itself lives in :mod:`repro.scheduling.kernel`.  The
state holds only what the kernel and :meth:`SchedulerState.commit` read —
the :class:`~repro.core.graph.FlatGraph` CSR adjacency, per-row
finish/class arrays, the precedence parts, the heterogeneous resource
choice and the per-class breakdown memo ``{task: (profile version,
ESTBreakdown)}``, which reuses a breakdown, refreshes only its resource
half or evaluates it in full, and counts each outcome (``n_reused``,
``n_refreshes``, ``n_full_evals``).  Every cached component is bit-for-bit
identical to a from-scratch evaluation (the test suite keeps such an
oracle kernel and substitutes it through ``state.kernel``).  Selector
keys are the selectors' own business (MemMinMin's lazy-heap bound lives
in :class:`~repro.scheduling.candidates.MinEFTSelector`).

On commit the state performs the §3.2 memory bookkeeping:

* outputs allocated in ``mu`` from the task start, released later when each
  consumer is committed;
* same-memory inputs released at the task finish;
* cross-memory inputs allocated in ``mu`` for the transfer-until-finish
  window and released from the parent's memory when their transfer ends.

Each of these events is one :meth:`MemoryProfile.add` on its profile, in
edge order.

Each individual transfer is clipped to start no earlier than its producer's
finish (``max(EST - Cmax, AFT(j))``; README, "Performance"): without the
clip the paper's common window can violate its own flow constraint.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Hashable, Optional

from .. import obs
from .._util import EPS
from ..core.graph import FlatGraph, TaskGraph
from ..obs.metrics import SIZE_BUCKETS
from ..core.memory_profile import MemoryProfile
from ..core.platform import Memory, Platform
from ..core.schedule import CommEvent, Placement, Schedule
from .kernel import ESTBreakdown, resolve_backend

Task = Hashable

#: The accepted ``comm_policy`` values (:class:`SchedulerState`).
COMM_POLICIES = ("late", "eager")

_INF = math.inf
#: Builds the per-commit ``Placement`` and ``CommEvent`` records from a
#: positional tuple, skipping the NamedTuple-generated ``__new__`` (see
#: :class:`~repro.scheduling.kernel.ESTBreakdown`).
_new = tuple.__new__


class InfeasibleScheduleError(RuntimeError):
    """The graph cannot be scheduled within the given memory bounds
    (the ``Error`` branch of Algorithms 1 and 2)."""


class _AvailVector(list):
    """Processor avail times with the minimum of each class kept in ``mins``.

    Behaves as the historical plain list (online sessions and tests
    assign ``state.avail[p] = t`` directly), but every write recomputes
    its class's minimum over the class's contiguous processor slice, so
    ``mins[c]`` is always ``min(avail of class c)`` (``inf`` for a class
    without processors) — the resource part of every uniform-class EST
    evaluation.

    Structural list mutations (append/pop/...) are forbidden — the vector
    is born with one slot per processor and keeps them for life.
    """

    __slots__ = ("proc_classes", "slices", "mins")

    def __init__(self, values, platform: Platform) -> None:
        super().__init__(values)
        self.proc_classes = platform.proc_classes
        self.slices = [slice(r.start, r.stop) for r in
                       map(platform.procs, range(platform.n_classes))]
        self.mins = [min(self[s], default=math.inf) for s in self.slices]

    def __setitem__(self, proc, value) -> None:
        if not isinstance(proc, int):
            raise TypeError("avail only supports single-processor writes")
        list.__setitem__(self, proc, float(value))
        ci = self.proc_classes[proc]
        self.mins[ci] = min(self[self.slices[ci]])

    def _blocked(self, *a, **kw):  # pragma: no cover - defensive
        raise TypeError("avail vector has a fixed processor count")

    append = extend = insert = pop = remove = clear = sort = reverse = _blocked
    __delitem__ = __iadd__ = __imul__ = _blocked


class SchedulerState:
    """Mutable partial schedule shared by every list-scheduling heuristic.

    Works for any number of memory classes; the paper's dual-memory
    platform is simply ``k = 2``.

    ``graph`` is a :class:`TaskGraph` or directly a
    :class:`~repro.core.graph.FlatGraph` (an online planning round builds
    its union as one); the state reads only the flat arrays.
    """

    def __init__(self, graph: "TaskGraph | FlatGraph", platform: Platform,
                 comm_policy: str = "late") -> None:
        if comm_policy not in COMM_POLICIES:
            raise ValueError(f"comm_policy must be 'late' or 'eager', got {comm_policy!r}")
        if graph.n_classes != platform.n_classes:
            raise ValueError(
                f"graph has {graph.n_classes} memory classes, platform "
                f"{platform.n_classes}")
        self.graph = graph
        self.platform = platform
        self.comm_policy = comm_policy
        self.kernel = resolve_backend()
        self.memories = platform.memories()
        # Per class: the indices of every other class, the ones a parent
        # placed there reaches through a cross-memory transfer.
        self._other_classes = tuple(
            tuple(c for c in range(platform.n_classes) if c != ci)
            for ci in range(platform.n_classes))
        # Per class: True when all its processors share one speed (the
        # min(avail) fast path); heterogeneous classes take the
        # per-processor finish-time path.
        self._uniform = platform.uniform_classes
        self.schedule = Schedule(platform)
        self.avail: _AvailVector = _AvailVector([0.0] * platform.n_procs,
                                                platform)
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
        self._pending_parents: dict[Task, int] = dict(zip(
            flat.order, map(sub, flat.parent_ptr[1:], flat.parent_ptr)))
        self._newly_ready: list[Task] = []
        # -- incremental EST caches ------------------------------------
        # per task: (precedence, cmax, cross_in, need_task) per class —
        # immutable once the task is ready (parents all committed).
        self._static: dict[Task, list[tuple[float, float, float, float]]] = {}
        # Per class: ``{task: (profile version, ESTBreakdown)}``, the
        # kernel's breakdown memo.  Keyed on the version of ``mem[m]``, so
        # any profile write, a commit's or a direct one, invalidates its
        # memory part on a finite-capacity class; commit evicts the
        # committed task, bounding the memo to ready-but-uncommitted
        # candidates.
        self._est_memo: list[dict] = [{} for _ in range(platform.n_classes)]
        # The memo's outcome counters, bumped by the kernel.
        self.n_full_evals = 0
        self.n_refreshes = 0
        self.n_reused = 0

    # ------------------------------------------------------------------
    # readiness
    # ------------------------------------------------------------------
    @property
    def n_scheduled(self) -> int:
        return len(self.schedule)

    @property
    def done(self) -> bool:
        return self.n_scheduled == self._flat.n_tasks

    def is_ready(self, task: Task) -> bool:
        """All parents scheduled, task itself not yet scheduled."""
        return task not in self.schedule and self._pending_parents[task] == 0

    def ready_roots(self) -> list[Task]:
        """All source tasks (ready at time zero)."""
        return self._flat.roots()

    def pop_newly_ready(self) -> list[Task]:
        """Tasks that became ready since the last call (after commits)."""
        out, self._newly_ready = self._newly_ready, []
        return out

    # ------------------------------------------------------------------
    # EST computation (§5.1) — arithmetic in repro.scheduling.kernel
    # ------------------------------------------------------------------
    def _resource_choice(self, memory: Memory, floor: float,
                         w: float) -> tuple[int, float, float]:
        """The resource half of an EST evaluation on a *heterogeneous*
        class (the kernel inlines the uniform ``min(avail)`` case):
        returns ``(proc, avail[proc], duration)`` for the processor
        minimising ``max(floor, avail[p]) + w / speed(p)``, ``floor``
        being the precedence/memory components.  Exact-equality ties
        prefer the later-available processor (least idle time, the same
        preference ``choose_proc`` applies on uniform classes), then the
        lower index (iteration order)."""
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

    def _precedence_parts(self, task: Task) -> list[tuple[float, float, float, float]]:
        """``(precedence, cmax, cross_in, need_task)`` per memory class.

        A single pass over the flat CSR parent arrays fills all k classes
        at once; the result is cached until the task itself commits — once
        a task is ready its parents are all placed, so these values never
        change.  Per parent edge, the parent's own class takes its finish
        time and every other class its finish plus transfer; each class's
        ``cross_in`` is an order-dependent sequential sum, kept in parent
        order, so every evaluation path shares this code.  Only called on
        ready tasks: every parent has a class.
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
        other_classes = self._other_classes
        for e in range(flat.parent_ptr[row], flat.parent_ptr[row + 1]):
            j = parent_row[e]
            finish = finish_of[j]
            p_idx = memidx_of[j]
            if finish > prec[p_idx]:
                prec[p_idx] = finish
            c = parent_comm[e]
            size = parent_size[e]
            late = finish + c
            for ci in other_classes[p_idx]:
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
        return self.kernel.evaluate(self, task, memory)

    def eval_counts(self) -> dict[str, int]:
        """The breakdown memo's outcome counters (diagnostics:
        ``repro.obs`` records them and the memo tests pin them)."""
        return {"n_full_evals": self.n_full_evals,
                "n_refreshes": self.n_refreshes,
                "n_reused": self.n_reused}

    def best_est(self, task: Task) -> Optional[ESTBreakdown]:
        """The memory choice minimising EFT (§5.1 memory-selection phase);
        ties go to the lowest class index (blue in the dual case).
        ``None`` when no memory is feasible."""
        best: Optional[ESTBreakdown] = None
        # EFT is inf exactly on infeasible candidates, and ``inf - EPS``
        # is inf: one comparison skips them and accepts the first
        # feasible one.
        best_eft = _INF
        evaluate = self.kernel.evaluate
        for memory in self.memories:
            bd = evaluate(self, task, memory)
            eft = bd.eft
            if eft < best_eft - EPS:
                best = bd
                best_eft = eft
        return best

    # ------------------------------------------------------------------
    # processor selection (§5.1)
    # ------------------------------------------------------------------
    def choose_proc(self, memory: Memory, est: float) -> int:
        """Processor of ``memory`` minimising idle time ``est - avail[p]``
        among those already free at ``est`` (ties: lowest index), by an
        index-order scan of the class's processors.

        Only meaningful on *uniform-speed* classes, where every free
        processor finishes the task at the same time; heterogeneous
        breakdowns pre-select their processor in :meth:`est`
        (``breakdown.proc``) and bypass this method at commit time."""
        avail = self.avail
        limit = est + EPS
        best_proc = -1
        best_avail = -math.inf
        for p in self.platform.procs(memory):
            a = avail[p]
            if a <= limit and a > best_avail + EPS:
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
        placement = _new(Placement, (task, proc, memory, est, finish))
        self.schedule.add(placement)
        self.avail[proc] = finish

        flat = self._flat
        row = self._row[task]
        finish_of = self._finish
        memidx_of = self._memidx
        finish_of[row] = finish
        midx = memory.index
        memidx_of[row] = midx

        dest = self.mem[memory]
        # Outputs resident in mu from the task start until each consumer is
        # committed (release scheduled then).
        out_total = flat.out_size[row]
        if out_total > 0.0:
            dest.add(out_total, est, None)

        late = self.comm_policy == "late"
        late_start = est - breakdown.cmax
        comm_fit = breakdown.comm_fit
        order = flat.order
        parent_row = flat.parent_row
        parent_size = flat.parent_size
        parent_comm = flat.parent_comm
        mem = self.mem
        memories = self.memories
        add_comm = self.schedule.add_comm
        for e in range(flat.parent_ptr[row], flat.parent_ptr[row + 1]):
            j = parent_row[e]
            p_idx = memidx_of[j]
            size = parent_size[e]
            if p_idx == midx:
                # Same-memory input: freed when this task finishes.
                if size > 0.0:
                    dest.add(-size, finish, None)
            else:
                # Cross-memory input transfer.  "late" (the paper's policy):
                # share the window [EST - Cmax, EST), clipped to the
                # producer's finish.  "eager" (ablation): fire as soon as the
                # destination has room, again no earlier than the producer.
                # ``max(...)`` as comparison chains (same value, the
                # first maximal operand wins ties).
                p_finish = finish_of[j]
                if late:
                    # EST >= comm_fit + Cmax, but ``EST - Cmax`` can round
                    # to one ulp below comm_fit on fractional times, which
                    # would start the copy inside the still-full segment;
                    # comm_fit is the exact fit breakpoint, so clip to it.
                    comm_start = late_start
                    if p_finish > comm_start:
                        comm_start = p_finish
                    if comm_fit > comm_start:
                        comm_start = comm_fit
                    comm_end = est
                else:
                    comm_start = (p_finish if p_finish > comm_fit
                                  else comm_fit)
                    comm_end = comm_start + parent_comm[e]
                add_comm(_new(CommEvent, (order[j], task, comm_start,
                                          comm_end)))
                if size > 0.0:
                    # Destination copy lives for transfer + execution.
                    dest.add(size, comm_start, finish)
                    # Source copy freed when the transfer completes.
                    mem[memories[p_idx]].add(-size, comm_end, None)

        self._placed(task, row)
        return placement

    def adopt(self, placement: Placement) -> None:
        """Record a task placed by an earlier state whose memory and
        processor effects this state already holds (an online session
        seeds ``mem`` and ``avail`` from a checkpoint of the committed
        prefix): the placement, its finish time and memory class, and the
        readiness of its children, exactly as :meth:`commit` records them
        — but no profile or avail change."""
        task = placement.task
        self.schedule.add(placement)   # rejects an already placed task
        row = self._row[task]
        self._finish[row] = placement.finish
        self._memidx[row] = placement.memory.index
        self._placed(task, row)

    def _placed(self, task: Task, row: int) -> None:
        """What :meth:`commit` and :meth:`adopt` record once ``task`` is
        placed: its cached EST components go (it is never a candidate
        again, which bounds the _static/_est_memo caches to the live
        candidate set; profile-version keys invalidate the rest), and
        readiness propagates over the flat child CSR."""
        self._static.pop(task, None)
        for memo in self._est_memo:
            memo.pop(task, None)
        flat = self._flat
        order = flat.order
        pending = self._pending_parents
        child_row = flat.child_row
        for e in range(flat.child_ptr[row], flat.child_ptr[row + 1]):
            child = order[child_row[e]]
            pending[child] -= 1
            if pending[child] == 0:
                self._newly_ready.append(child)

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
                algorithm=algorithm).observe(self._flat.n_tasks)
        return self.schedule
