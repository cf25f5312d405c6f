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
the wrong task.  The heap is therefore keyed on
``lb(T) = min_c max(resource_c, precedence_c(T)) + Wmin^(c)_T`` — the
memory-free part of the breakdown, with ``Wmin^(c) = W^(c)/max_speed(c)``
keyed on the *fastest processor of each class* — a lower bound of
``best_eft(T)`` that stays valid for the rest of the run (precedence is
immutable once a task is ready, processor avail times only advance, no
assignment runs faster than the class's fastest processor), so it is a
sound *eternal* heap key: candidates whose key exceeds the best exact EFT
found so far need not be touched at all.  The selector owns that key: it
builds it from the state's cached precedence parts, the platform's
fastest speeds and each class's ``min(avail)``, which the avail vector
keeps in ``state.avail.mins``.

No selector caches breakdowns of its own: every one reads them through
``state.best_est`` / ``state.est``, whose kernel memo reuses a breakdown,
refreshes only its resource half, or re-evaluates it in full when the
class's finite-capacity profile moved (:mod:`repro.scheduling.kernel`).

Selection pops candidates in lower-bound order, evaluates each exactly
(through the kernel's memo), and stops once the heap top's bound exceeds
the best exact EFT ``m`` by more than ``2*EPS``.  The naive scan's
order-dependent EPS-chain tie-break (``cand.eft < best.eft - EPS``) is
reproduced exactly: its winner provably has ``eft <= m + EPS``, and when
no candidate's EFT falls in ``(m + EPS, m + 2*EPS]`` the chain provably
settles on the lowest-index candidate of the ``<= m + EPS`` band — with
the paper's integer-valued task times the window case essentially never
occurs, and when it does the selector falls back to the scan's exact
chain (:func:`min_eft`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Hashable, Optional

from .._util import EPS
from .state import ESTBreakdown, SchedulerState

Task = Hashable


class _Entry:
    """One ready task in the heap, with its last exact evaluation."""

    __slots__ = ("task", "tie", "alive", "value", "breakdown", "lbparts")

    def __init__(self, task: Task, tie: int) -> None:
        self.task = task
        self.tie = tie
        self.alive = True
        self.value: float = math.inf
        self.breakdown: Optional[ESTBreakdown] = None
        #: Static ``(Wmin^(c), precedence_c + Wmin^(c))`` pair per class
        #: (``None`` for classes without processors) — the memory-free
        #: lower bound of the class-c EFT is ``max(resource_c + W, prec + W)``.
        self.lbparts: Optional[list] = None


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
    class fits), ties towards the smaller EFT, then the earlier task.
    Equal EFTs rank in class order, as a stable sort would rank them."""
    evaluate = state.kernel.evaluate
    memories = state.memories
    inf = math.inf
    best_choice: Optional[ESTBreakdown] = None
    best_key: Optional[tuple[float, float, int]] = None
    for tie, task in enumerate(tasks):
        preferred = None
        first = second = inf   # the two smallest EFTs; inf = infeasible
        for memory in memories:
            bd = evaluate(state, task, memory)
            eft = bd.eft
            if eft < first:
                preferred, first, second = bd, eft, first
            elif eft < second:
                second = eft
        if preferred is None:
            continue
        # second - first is inf when only one memory can take it: urgent
        key = (first - second, first, tie)
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
        """The entry's eternal heap key ``min_c max(resources[c],
        precedence_c) + Wmin^(c)`` (see the module docstring for why it is
        sound), from its cached static parts."""
        parts = entry.lbparts
        if parts is None:
            state = self.state
            platform = state.platform
            precedence = state._precedence_parts(entry.task)
            parts = entry.lbparts = [
                (w / fastest, part[0] + w / fastest) if count else None
                for w, fastest, count, part in zip(
                    state._flat.times[state._row[entry.task]],
                    platform.max_class_speeds, platform.proc_counts,
                    precedence)]
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

    def select(self) -> Optional[ESTBreakdown]:
        """The candidate the naive scan would commit, or ``None`` when no
        available task fits within the memory bounds."""
        state = self.state
        heap = self._heap
        best_est = state.best_est
        # select() commits nothing, so the live minima stay put.
        resources = state.avail.mins
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
            bd = entry.breakdown = best_est(entry.task)
            value = entry.value = bd.eft if bd is not None else math.inf
            popped.append(entry)
            if value < m:
                m = value

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
