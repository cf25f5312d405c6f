"""Candidate selectors: the selection rules the one list-scheduling loop
(:func:`repro.scheduling.driver.drive`) runs.

A selector holds the ready tasks (``push``/``remove``) and answers
``select()`` with the (task, memory) breakdown to commit next, or ``None``
when no ready task fits.  Each heuristic drives one selector.

:class:`ScanSelector` keeps the ready tasks sorted by a stable ``order``
(task → index) and every step hands that list to one §5.2 rule:
:func:`first_fit` (MemHEFT, ``order`` = rank position),
:func:`max_sufferage` (MemSufferage) or :func:`min_eft` (MemMinMin's
reference).  It caches nothing — the incremental EST kernel's memo makes
re-asking an untouched (task, class) pair cheap — and inserts by bisect,
so a step costs the rule's own pass and no sort.

:class:`MinEFTSelector` serves MemMinMin's argmin from a lazy heap and
commits **bit-identical** schedules to ``ScanSelector(…, min_eft)``
(pinned by the golden-schedule and scan-reference property tests).  The
difficulty is that EFTs are *not monotone* under commits: a commit
releases memory at future instants, which can lower another candidate's
``task_mem``/``comm_mem`` component, so a stale cached EFT is not a lower
bound of the current one and a classic stale-entry heap would silently pick
the wrong task.  The selector is built on two observations:

* ``lb(T) = min_c max(resource_c, precedence_c(T)) + Wmin^(c)_T`` — the
  memory-free part of the breakdown, with ``Wmin^(c) = W^(c)/max_speed(c)``
  keyed on the *fastest processor of each class* — is a lower bound of
  ``best_eft(T)`` that stays valid for the rest of the run (precedence is
  immutable once a task is ready, processor avail times only advance, no
  assignment runs faster than the class's fastest processor), so it is a
  sound *eternal* heap key: candidates whose key exceeds the best exact
  EFT found so far need not be touched at all;
* each per-class stamp — ``(touch serial, resource)`` on uniform-speed
  classes, ``(touch serial, per-processor avail tuple)`` on heterogeneous
  ones, where a per-processor finish argmin decides the breakdown — fully
  determines a candidate's per-class breakdown; the touch serial comes
  from the commit-side dirty tracking of :meth:`SchedulerState.commit`,
  which records exactly which classes each commit mutated.

**Scoped invalidation.**  A moved stamp component does not necessarily
demand a full kernel re-evaluation.  Per (candidate, class) the selector
distinguishes three cases:

* *reuse* — the stamp component is unchanged: the cached
  :class:`ESTBreakdown` is returned outright;
* *refresh* — the class's touch serial is unchanged (only processor avail
  moved) **or** its capacity is infinite (the staircase queries of an
  unbounded profile are identically zero, so profile mutations cannot
  affect the breakdown): the memory components are reused verbatim and
  only the O(procs) resource half is recomputed — bit-identical to a full
  evaluation because the kernel itself computes
  ``est = max(resource, floor)`` from exactly these parts;
* *full* — the class's finite-capacity profile was mutated since the last
  evaluation: only then does the candidate go back through the EST kernel.

A commit therefore invalidates a candidate's class only when it touched
that class's *finite* memory profile — commits in unrelated regions of the
DAG (or any commit at all on unbounded classes) cost at most an O(1)
resource refresh rather than a re-evaluation of every candidate of every
touched class.  :class:`SelectorStats` counts the three outcomes.

Selection pops candidates in lower-bound order, re-evaluates each exactly
(through the incremental kernel, which serves untouched classes from its
version-keyed memo), and stops once the heap top's bound exceeds the best
exact EFT ``m`` by more than ``2*EPS``.  The naive scan's order-dependent
EPS-chain tie-break (``cand.eft < best.eft - EPS``) is reproduced exactly:
its winner provably has ``eft <= m + EPS``, and when no candidate's EFT falls
in ``(m + EPS, m + 2*EPS]`` the chain provably settles on the lowest-index
candidate of the ``<= m + EPS`` band — with the paper's integer-valued
task times the window case essentially never occurs, and when it does the
selector falls back to the scan's exact chain (:func:`min_eft`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Hashable, Optional

from .._util import EPS
from .state import ESTBreakdown, SchedulerState, lower_bound_from_parts

Task = Hashable


class SelectorStats:
    """Per-(candidate, class) outcome counters of the scoped invalidation
    (diagnostics: ``repro.obs`` records them and the scoped-invalidation
    tests pin them)."""

    __slots__ = ("n_full_evals", "n_refreshes", "n_reused")

    def __init__(self) -> None:
        self.n_full_evals = 0
        self.n_refreshes = 0
        self.n_reused = 0

    def as_dict(self) -> dict[str, int]:
        return {"n_full_evals": self.n_full_evals,
                "n_refreshes": self.n_refreshes,
                "n_reused": self.n_reused}


class _Entry:
    """Cached evaluation of one ready task."""

    __slots__ = ("task", "tie", "alive", "stamps", "value", "breakdown",
                 "lbparts", "bds", "cstamps")

    def __init__(self, task: Task, tie: int) -> None:
        self.task = task
        self.tie = tie
        self.alive = True
        #: Full stamp tuple at last evaluation (all classes clean marker).
        self.stamps: Optional[tuple] = None
        self.value: float = math.inf
        self.breakdown: Optional[ESTBreakdown] = None
        #: Static ``(Wmin^(c), precedence_c + Wmin^(c))`` pair per class
        #: (``None`` for classes without processors) — the memory-free
        #: lower bound of the class-c EFT is ``max(resource_c + W, prec + W)``.
        self.lbparts: Optional[tuple] = None
        #: Per-class breakdown cache + the stamp component each was
        #: evaluated under.
        self.bds: Optional[list] = None
        self.cstamps: Optional[list] = None


def _state_stamp(state: SchedulerState, resources: list[float]) -> tuple:
    """Snapshot that fully determines every candidate's EST breakdown.

    Keyed per class on ``(touch serial, resource)``: the touch serial is
    bumped once per commit that actually mutated the class's profile (the
    commit-side dirty tracking of :meth:`SchedulerState.commit`), so a
    class whose component is unchanged has a bit-identical profile *and*
    an unchanged resource floor — every cached per-class breakdown stamped
    with it can be reused verbatim.

    A *uniform-speed* class is fully described by its ``min(avail)``
    resource floor; a heterogeneous class's breakdown depends on which
    individual processor wins the per-finish-time argmin, so its stamp
    component carries the whole per-processor avail tuple (the
    touched-proc view: any commit that advanced any of the class's
    processors — including direct ``avail`` mutations by branching
    searches — changes the stamp).
    """
    touch = state.class_touch_serial
    avail = state.avail
    uniform = state.platform.uniform_classes
    out = []
    for m in state.memories:
        ci = m.index
        if uniform[ci]:
            out.append((touch[ci], resources[ci]))
        else:
            procs = state.platform.procs(m)
            out.append((touch[ci],
                        tuple(avail[p] for p in procs)))
    return tuple(out)


def _refresh_breakdown(state: SchedulerState, bd: ESTBreakdown,
                       memory) -> ESTBreakdown:
    """Re-derive a cached breakdown after a resource-only change: the
    memory and precedence components are unchanged by assumption (profile
    serial unmoved, or infinite capacity), so only the resource/processor
    half re-runs — the exact arithmetic the kernel itself would perform
    with identical parts, hence bit-identical to a full evaluation."""
    idx = memory.index
    w = state._flat.times[state._row[bd.task]][idx]
    if state._uniform[idx]:
        # _resource_choice's uniform branch, inlined (the hot case).
        entries = state.avail.by_class[idx]
        resource = entries[0][0] if entries else math.inf
        est = max(resource, bd.precedence, bd.task_mem, bd.comm_mem)
        duration = w / state.platform.max_class_speeds[idx]
        proc = -1
    else:
        resource, est, duration, proc = state._resource_choice(
            memory, bd.precedence, bd.task_mem, bd.comm_mem, w)
    eft = est + duration if math.isfinite(est) else math.inf
    return ESTBreakdown(bd.task, memory, resource, bd.precedence,
                        bd.task_mem, bd.comm_mem, bd.cmax, est, eft,
                        bd.comm_fit, duration, proc)


def _update_entry(state: SchedulerState, entry: _Entry, stamp: tuple,
                  stats: SelectorStats, inf_cap: tuple) -> None:
    """Bring the entry's per-class breakdown cache up to ``stamp``,
    classifying each class as reuse / refresh / full."""
    memories = state.memories
    if entry.bds is None:
        entry.bds = [None] * len(memories)
        entry.cstamps = [None] * len(memories)
    bds = entry.bds
    cstamps = entry.cstamps
    for ci, memory in enumerate(memories):
        comp = stamp[ci]
        old = cstamps[ci]
        if old == comp:
            stats.n_reused += 1
            continue
        if old is not None and (old[0] == comp[0] or inf_cap[ci]):
            bds[ci] = _refresh_breakdown(state, bds[ci], memory)
            stats.n_refreshes += 1
        else:
            bds[ci] = state.est(entry.task, memory)
            stats.n_full_evals += 1
        cstamps[ci] = comp


def _best_of(entry: _Entry) -> Optional[ESTBreakdown]:
    """The §5.1 memory-selection EPS-chain of
    :meth:`SchedulerState.best_est`, replayed over the entry's per-class
    breakdown cache in class order — bit-identical choice."""
    best: Optional[ESTBreakdown] = None
    for bd in entry.bds:
        if not bd.feasible:
            continue
        if best is None or bd.eft < best.eft - EPS:
            best = bd
    return best


def first_fit(state: SchedulerState, tasks) -> Optional[ESTBreakdown]:
    """MemHEFT's rule (Algorithm 1): the first task of ``tasks`` with a
    feasible assignment."""
    for task in tasks:
        best = state.best_est(task)
        if best is not None:
            return best
    return None


def min_eft(state: SchedulerState, tasks) -> Optional[ESTBreakdown]:
    """MemMinMin's rule (Algorithm 2): the minimum best-class EFT over
    ``tasks``, through the order-dependent EPS-chain (a later task wins
    only when it is more than ``EPS`` earlier)."""
    best: Optional[ESTBreakdown] = None
    for task in tasks:
        cand = state.best_est(task)
        if cand is None:
            continue
        if best is None or cand.eft < best.eft - EPS:
            best = cand
    return best


def max_sufferage(state: SchedulerState, tasks) -> Optional[ESTBreakdown]:
    """MemSufferage's rule: the task of ``tasks`` with the largest gap
    between its best and second-best class EFT (infinite when only one
    class fits), ties towards the smaller EFT, then the earlier task."""
    best_choice: Optional[ESTBreakdown] = None
    best_key: Optional[tuple[float, float, int]] = None
    for tie, task in enumerate(tasks):
        breakdowns = [state.est(task, m) for m in state.memories]
        feasible = [bd for bd in breakdowns if bd.feasible]
        if not feasible:
            continue
        feasible.sort(key=lambda bd: bd.eft)
        preferred = feasible[0]
        if len(feasible) >= 2:
            sufferage = feasible[1].eft - feasible[0].eft
        else:
            sufferage = math.inf  # only one memory can take it: urgent
        key = (-sufferage, preferred.eft, tie)
        if best_key is None or key < best_key:
            best_key = key
            best_choice = preferred
    return best_choice


class ScanSelector:
    """Every step applies ``rule`` to all ready tasks, in ``order``
    (task → stable index): MemHEFT's and MemSufferage's selection, and
    the reference :class:`MinEFTSelector` is tested against.  The ready
    list is kept sorted by bisect on the order index, so ``select()``
    hands it to the rule as it stands.  O(ready) evaluations per step,
    no caches."""

    def __init__(self, state: SchedulerState, order: dict[Task, int],
                 rule) -> None:
        self.state = state
        self.order = order
        self.rule = rule
        self._keys: list[int] = []
        self._tasks: list[Task] = []

    def __len__(self) -> int:
        return len(self._tasks)

    def push(self, task: Task) -> None:
        key = self.order[task]
        i = bisect_left(self._keys, key)
        if i == len(self._keys) or self._keys[i] != key:
            self._keys.insert(i, key)
            self._tasks.insert(i, task)

    def remove(self, task: Task) -> None:
        key = self.order[task]
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            del self._keys[i]
            del self._tasks[i]

    def select(self) -> Optional[ESTBreakdown]:
        return self.rule(self.state, self._tasks)


class MinEFTSelector:
    """Lazy heap returning the MemMinMin winner: the available task whose
    best-class EFT survives the naive scan's EPS-chain, bit-identically.

    ``order`` maps each task to its stable tie-break index (the topological
    position the scan keeps its ready list in).
    """

    def __init__(self, state: SchedulerState, order: dict[Task, int]) -> None:
        self.state = state
        self.order = order
        self.stats = SelectorStats()
        self._inf_cap = tuple(math.isinf(c)
                              for c in state.platform.capacities)
        self._heap: list[tuple[float, int, _Entry]] = []
        self._live: dict[Task, _Entry] = {}

    def __len__(self) -> int:
        return len(self._live)

    def push(self, task: Task) -> None:
        """Register a task that just became ready.  The initial key is the
        trivial lower bound 0.0: the entry gets evaluated — and re-keyed
        with its real bound — on the next :meth:`select`."""
        entry = _Entry(task, self.order[task])
        self._live[task] = entry
        heappush(self._heap, (0.0, entry.tie, entry))

    def remove(self, task: Task) -> None:
        """Drop a committed task (its heap entry dies lazily)."""
        entry = self._live.pop(task, None)
        if entry is not None:
            entry.alive = False

    def _lower_bound(self, entry: _Entry, resources: list[float]) -> float:
        """The entry's eternal heap key, from its cached static parts (see
        :meth:`SchedulerState.est_lower_bound` for why it is sound)."""
        parts = entry.lbparts
        if parts is None:
            parts = entry.lbparts = \
                self.state.est_lower_bound_parts(entry.task)
        return lower_bound_from_parts(parts, resources)

    def select(self) -> Optional[ESTBreakdown]:
        """The candidate the naive scan would commit, or ``None`` when no
        available task fits within the memory bounds."""
        state = self.state
        heap = self._heap
        resources = state.class_resources()
        stamp = _state_stamp(state, resources)
        window = 2.0 * EPS
        m = math.inf
        popped: list[_Entry] = []
        while heap:
            key, _tie, entry = heap[0]
            if not entry.alive:
                heappop(heap)
                continue
            if key > m + window:
                break
            heappop(heap)
            if entry.stamps != stamp:
                _update_entry(state, entry, stamp, self.stats,
                              self._inf_cap)
                bd = _best_of(entry)
                entry.breakdown = bd
                entry.value = bd.eft if bd is not None else math.inf
                entry.stamps = stamp
            popped.append(entry)
            if entry.value < m:
                m = entry.value

        if math.isinf(m):
            for entry in popped:
                heappush(heap, (self._lower_bound(entry, resources),
                                entry.tie, entry))
            return None

        lead: Optional[_Entry] = None  # lowest-index entry with eft <= m+EPS
        n_band = 0
        in_window = False
        for entry in popped:
            if entry.value <= m + EPS:
                n_band += 1
                if lead is None or entry.tie < lead.tie:
                    lead = entry
            elif entry.value <= m + window:
                in_window = True
        if n_band == 1 or not in_window:
            choice = lead.breakdown
        else:
            # The EPS-chain is genuinely order-dependent here (an EFT
            # landed in the (m+EPS, m+2*EPS] window): replay the scan.
            choice = min_eft(state, sorted(self._live,
                                           key=self.order.__getitem__))
        assert choice is not None  # m is finite, so some candidate fits
        for entry in popped:
            # Reinsert with a refreshed (tighter) eternal lower bound; the
            # winner is reinserted too and dies lazily on remove().
            heappush(heap, (self._lower_bound(entry, resources),
                            entry.tie, entry))
        return choice
