"""Lazy-invalidation candidate selection for the list-scheduling loops.

The naive §5.2 selection loop rescans every available (task, class) pair
after each commit: MemMinMin and MemSufferage re-evaluate the full EST
breakdown of every ready task per step — O(n) evaluations per commit, O(n²)
per schedule — and MemHEFT re-walks its whole priority list.  PR 1's
incremental EST kernel made each re-evaluation cheap; this module removes
most re-evaluations altogether while committing **bit-identical** schedules
(pinned by the golden-schedule and lazy-equivalence property tests).

The difficulty is that EFTs are *not monotone* under commits: a commit
releases memory at future instants, which can lower another candidate's
``task_mem``/``comm_mem`` component, so a stale cached EFT is not a lower
bound of the current one and a classic stale-entry heap would silently pick
the wrong task.  :class:`MinEFTSelector` is built on two observations:

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
demand a full kernel re-evaluation.  Per (candidate, class) the selectors
distinguish three cases:

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
resource refresh, replacing the former coarse rule that re-evaluated every
candidate of every touched class.  ``dag_scoped=False`` keeps the coarse
rule for A/B benchmarks; :class:`SelectorStats` counts the three outcomes
either way.

Selection pops candidates in lower-bound order, re-evaluates each exactly
(through the incremental kernel, which serves untouched classes from its
version-keyed memo), and stops once the heap top's bound exceeds the best
exact EFT ``m`` by more than ``2*EPS``.  The naive scan's order-dependent
EPS-chain tie-break (``cand.eft < best.eft - EPS``) is reproduced exactly:
its winner provably has ``eft <= m + EPS``, and when no candidate's EFT falls
in ``(m + EPS, m + 2*EPS]`` the chain provably settles on the lowest-index
candidate of the ``<= m + EPS`` band — with the paper's integer-valued
task times the window case essentially never occurs, and when it does the
selector falls back to replaying the exact chain.

MemHEFT needs no EFT ordering at all — its selection is "first ready task
in rank order with a feasible assignment" — so :class:`RankSelector` is a
plain heap over rank positions of *ready* tasks, skipping the remaining
list's not-yet-ready prefix walks entirely.

MemSufferage's key (best minus second-best EFT) has no usable lower bound
— it can move in either direction after a commit — so
:class:`SufferageSelector` keeps per-class stamps only: candidate classes
untouched since their last evaluation are reused (or refreshed) and the
arg-max is a single linear pass, replacing the naive loop's full
re-evaluation plus O(R log R) sort per step.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Hashable, Optional

from .._util import EPS
from .state import ESTBreakdown, SchedulerState, lower_bound_from_parts

Task = Hashable


class SelectorStats:
    """Per-(candidate, class) outcome counters of the scoped invalidation
    (diagnostics; the invalidation benchmark reads them)."""

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

    __slots__ = ("task", "tie", "alive", "stamps", "value", "key",
                 "breakdown", "lbparts", "bds", "cstamps")

    def __init__(self, task: Task, tie: int) -> None:
        self.task = task
        self.tie = tie
        self.alive = True
        #: Full stamp tuple at last evaluation (all classes clean marker).
        self.stamps: Optional[tuple] = None
        self.value: float = math.inf
        self.key: object = None  # SufferageSelector's ordering tuple
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
    w = state._flat.times[state._row[bd.task]][memory.index]
    resource, est, duration, proc = state._resource_choice(
        memory, bd.precedence, bd.task_mem, bd.comm_mem, w)
    eft = est + duration if math.isfinite(est) else math.inf
    return ESTBreakdown(bd.task, memory, resource, bd.precedence,
                        bd.task_mem, bd.comm_mem, bd.cmax, est, eft,
                        bd.comm_fit, duration, proc)


def _update_entries(state: SchedulerState, entries: list[_Entry],
                    stamp: tuple, stats: SelectorStats,
                    dag_scoped: bool, inf_cap: tuple) -> None:
    """Bring every entry's per-class breakdown cache up to ``stamp``,
    classifying each (entry, class) pair as reuse / refresh / full."""
    memories = state.memories
    for e in entries:
        if e.bds is None:
            e.bds = [None] * len(memories)
            e.cstamps = [None] * len(memories)
    for ci, memory in enumerate(memories):
        comp = stamp[ci]
        serial = comp[0]
        for e in entries:
            old = e.cstamps[ci]
            if old == comp:
                stats.n_reused += 1
                continue
            if (dag_scoped and old is not None
                    and (old[0] == serial or inf_cap[ci])):
                e.bds[ci] = _refresh_breakdown(state, e.bds[ci], memory)
                stats.n_refreshes += 1
            else:
                e.bds[ci] = state.est(e.task, memory)
                stats.n_full_evals += 1
            e.cstamps[ci] = comp


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


class MinEFTSelector:
    """Lazy heap returning the MemMinMin winner: the available task whose
    best-class EFT survives the naive scan's EPS-chain, bit-identically.

    ``order`` maps each task to its stable tie-break index (the topological
    position the naive scan sorts by).  ``dag_scoped=False`` reverts to the
    coarse invalidation rule (every touched class fully re-evaluated) for
    A/B comparisons.
    """

    def __init__(self, state: SchedulerState, order: dict[Task, int],
                 dag_scoped: bool = True) -> None:
        self.state = state
        self.order = order
        self.dag_scoped = dag_scoped
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

    def _chain_fallback(self) -> Optional[ESTBreakdown]:
        """Replay the naive scan's exact EPS-chain over all ready tasks
        (only reached when an EFT lands in the ``(m+EPS, m+2*EPS]``
        window that makes the chain genuinely order-dependent)."""
        state = self.state
        best: Optional[ESTBreakdown] = None
        for task in sorted(self._live, key=self.order.__getitem__):
            cand = state.best_est(task)
            if cand is None:
                continue
            if best is None or cand.eft < best.eft - EPS:
                best = cand
        return best

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
                _update_entries(state, [entry], stamp, self.stats,
                                self.dag_scoped, self._inf_cap)
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
            choice = self._chain_fallback()
        assert choice is not None  # m is finite, so some candidate fits
        for entry in popped:
            # Reinsert with a refreshed (tighter) eternal lower bound; the
            # winner is reinserted too and dies lazily on remove().
            heappush(heap, (self._lower_bound(entry, resources),
                            entry.tie, entry))
        return choice


class RankSelector:
    """MemHEFT's selection: the first *ready* task in rank order with a
    feasible assignment, served from a heap over rank positions instead of
    re-walking the remaining priority list each step.

    The winner is popped for good by :meth:`select` (every selected
    candidate is committed by the heuristic); infeasible tasks skipped on
    the way are pushed back and retried next step, exactly like the naive
    front-to-back rescan."""

    def __init__(self, state: SchedulerState, position: dict[Task, int]) -> None:
        self.state = state
        self.position = position
        #: Rank selection has no breakdown cache, so every probed task is
        #: a full evaluation — counted for parity with the lazy selectors
        #: (the obs layer folds these into its selector metrics).
        self.stats = SelectorStats()
        self._heap: list[tuple[int, Task]] = []

    def push(self, task: Task) -> None:
        heappush(self._heap, (self.position[task], task))

    def remove(self, task: Task) -> None:
        """No-op: the winner already left the heap in :meth:`select`."""

    def select(self) -> Optional[ESTBreakdown]:
        state = self.state
        heap = self._heap
        skipped: list[tuple[int, Task]] = []
        choice: Optional[ESTBreakdown] = None
        while heap:
            item = heappop(heap)
            self.stats.n_full_evals += 1
            bd = state.best_est(item[1])
            if bd is not None:
                choice = bd
                break
            skipped.append(item)
        for item in skipped:
            heappush(heap, item)
        return choice


class SufferageSelector:
    """MemSufferage's selection with per-candidate scoped invalidation.

    Candidate classes whose stamp component — (class touch serial, class
    resource) — is unchanged since their last evaluation are reused
    verbatim, resource-only changes are refreshed in O(1), and only
    finite-capacity profile mutations trigger kernel re-evaluations.  The
    arg-max over ``(-sufferage, preferred_eft, index)`` keys is one linear
    pass (the key embeds the stable task index, so iteration order cannot
    leak into the result)."""

    def __init__(self, state: SchedulerState, order: dict[Task, int],
                 dag_scoped: bool = True) -> None:
        self.state = state
        self.order = order
        self.dag_scoped = dag_scoped
        self.stats = SelectorStats()
        self._inf_cap = tuple(math.isinf(c)
                              for c in state.platform.capacities)
        self._live: dict[Task, _Entry] = {}

    def __len__(self) -> int:
        return len(self._live)

    def push(self, task: Task) -> None:
        self._live[task] = _Entry(task, self.order[task])

    def remove(self, task: Task) -> None:
        self._live.pop(task, None)

    def _rebuild_key(self, entry: _Entry) -> None:
        """Rebuild the entry's ordering key from its (fresh) per-class
        breakdowns, exactly as the naive scan does."""
        feasible = [bd for bd in entry.bds if bd.feasible]
        if not feasible:
            entry.key = None
            entry.breakdown = None
            return
        feasible.sort(key=lambda bd: bd.eft)
        preferred = feasible[0]
        if len(feasible) >= 2:
            sufferage = feasible[1].eft - feasible[0].eft
        else:
            sufferage = math.inf  # only one memory can take it: urgent
        entry.key = (-sufferage, preferred.eft, entry.tie)
        entry.breakdown = preferred

    def select(self) -> Optional[ESTBreakdown]:
        state = self.state
        stamp = _state_stamp(state, state.class_resources())
        stale = [e for e in self._live.values() if e.stamps != stamp]
        if stale:
            _update_entries(state, stale, stamp, self.stats,
                            self.dag_scoped, self._inf_cap)
            for entry in stale:
                self._rebuild_key(entry)
                entry.stamps = stamp
        best_key = None
        best_bd: Optional[ESTBreakdown] = None
        for entry in self._live.values():
            key = entry.key
            if key is None:
                continue
            if best_key is None or key < best_key:
                best_key = key
                best_bd = entry.breakdown
        return best_bd
