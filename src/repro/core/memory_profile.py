"""Piecewise-constant memory-occupancy profile (the ``free_mem`` staircase of §5.1).

The paper's heuristics maintain, per memory, a staircase function
``free_mem(t)`` stored as a list of couples ``[(x_1, val_1), .., (x_l, val_l)]``.
We store the *used* memory instead (``free = capacity - used``), which keeps
the same representation working when the capacity is infinite — the classical
memory-oblivious heuristics are then just the memory-aware ones run with
``capacity = inf`` while still being able to report their memory peaks.

Supported queries:

* :meth:`add` — add (or with a negative amount, release) memory over a
  time interval ``[start, end)``; ``end=None`` means "until further notice"
  (the paper's note that ``val_l`` may be non-zero because files stay
  resident until their consumer is scheduled).
* :meth:`earliest_fit` — the ``min { t : for all t' >= t, free(t') >= need }``
  primitive used by ``task_mem_EST`` and ``comm_mem_EST``.
* :meth:`record` / :meth:`mark` / :meth:`rollback` — an undo log that takes
  mutations back exactly (the old values are stored, never subtracted:
  float sums are not invertible).

``earliest_fit`` is the hot query of the EST kernel.  Rather than rebuilding
an O(l) suffix-max array after every mutation (the seed implementation's
hidden quadratic term), the profile keeps *block maxima* over the segment
values: mutations dirty only the blocks at/after their leftmost touched
index — almost always near the staircase's tail, since schedules grow
forward in time — and the query scans blocks right-to-left for the
rightmost segment exceeding the threshold, skipping whole blocks.  Both the
repair and the scan are O(l / B + B) in the common case.  A running
maximum over the blocks, repaired alongside them, answers "no segment
exceeds the threshold" in O(1) — the usual case on a roomy capacity,
where the scan would otherwise walk every block of a long profile (an
online session's profiles grow with its history).  Unbounded profiles
skip the machinery entirely (any amount fits at t = 0).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, Optional

from .._util import EPS


class MemoryProfile:
    """Used-memory staircase over ``[0, +inf)`` with capacity queries.

    The profile carries a ``version`` counter, bumped on every mutation that
    can change the staircase *function*; the scheduler's incremental EST
    kernel keys its breakdown memo on it.  Merging adjacent
    equal-valued segments (:meth:`compact`) leaves the function — and hence
    the version — unchanged, which lets long schedules compact away dead
    breakpoints without invalidating any cached EST component.
    """

    __slots__ = ("capacity", "version", "_xs", "_vals", "_bmax", "_pmax",
                 "_bdirty", "_compact_floor", "_compact_at", "_undo")

    #: Segments per max-block.  Mutation repair and threshold queries cost
    #: O(l / B + B); 64 balances the two for the profile sizes large
    #: schedules produce (a few thousand segments).
    _BLOCK = 64

    #: Auto-compaction triggers when the segment count exceeds
    #: ``max(_COMPACT_MIN, 2 * floor)`` where ``floor`` is the count right
    #: after the previous compaction — amortized O(1) per mutation.
    _COMPACT_MIN = 64

    def __init__(self, capacity: float = math.inf) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.version = 0
        self._xs: list[float] = [0.0]  # breakpoint times, sorted, xs[0] == 0
        self._vals: list[float] = [0.0]  # used memory on [xs[k], xs[k+1]) (last: to +inf)
        self._bmax: list[float] = []   # per-block max of _vals[b*B:(b+1)*B]
        self._pmax: list[float] = []   # running max of _bmax[:b+1]
        self._bdirty = 0               # blocks >= _bdirty are stale
        self._set_compact_floor(1)
        self._undo: Optional[list] = None   # see record()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _mark_dirty(self, index: int) -> None:
        """Record that segment values at/after ``index`` changed or shifted."""
        block = index // self._BLOCK
        if block < self._bdirty:
            self._bdirty = block

    def _set_compact_floor(self, floor: int) -> None:
        """Set the post-compaction segment count and the auto-compaction
        threshold derived from it, which :meth:`add` reads per call."""
        self._compact_floor = floor
        self._compact_at = max(self._COMPACT_MIN, 2 * floor)

    def add(self, amount: float, start: float, end: Optional[float] = None) -> None:
        """Add ``amount`` of used memory on ``[start, end)``.

        ``end=None`` extends to +inf.  Negative amounts release memory.
        ``start`` is clamped to 0.  Empty or zero-amount intervals are no-ops.

        This is the per-event hot path of every commit: each breakpoint
        takes one bisect (the ``end`` search starts at ``start``'s segment,
        since ``end > start``) and is inserted in place, and one dirty mark
        at the ``start`` segment covers both insertions and the value
        updates.  The undo log gets ``("insert", k)`` for ``start``, then
        for ``end``, then the ``("add", ...)`` entry.
        """
        if amount == 0.0:
            return
        if not start > 0.0:   # max(0.0, start), without the call
            start = 0.0
        if end is not None and end <= start:
            return
        xs = self._xs
        vals = self._vals
        undo = self._undo
        i0 = bisect_right(xs, start) - 1
        if xs[i0] != start:
            i0 += 1
            xs.insert(i0, start)
            vals.insert(i0, vals[i0 - 1])
            if undo is not None:
                undo.append(("insert", i0))
        if end is None:
            i1 = len(xs)
        else:
            i1 = bisect_right(xs, end, i0) - 1
            if xs[i1] != end:
                i1 += 1
                xs.insert(i1, end)
                vals.insert(i1, vals[i1 - 1])
                if undo is not None:
                    undo.append(("insert", i1))
        if undo is not None:
            undo.append(("add", i0, vals[i0:i1], self.version))
        for k in range(i0, i1):
            vals[k] += amount
        block = i0 // self._BLOCK
        if block < self._bdirty:
            self._bdirty = block
        self.version += 1
        if len(xs) > self._compact_at:
            self.compact()

    def release_from(self, amount: float, start: float) -> None:
        """Release ``amount`` from ``start`` onwards (convenience wrapper)."""
        self.add(-amount, start, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def used_at(self, t: float) -> float:
        """Used memory at time ``t`` (segments are half-open ``[x_k, x_{k+1})``)."""
        if t < 0:
            return 0.0
        k = bisect_right(self._xs, t) - 1
        return self._vals[k]

    def free_at(self, t: float) -> float:
        """Free memory at time ``t``."""
        return self.capacity - self.used_at(t)

    def peak(self) -> float:
        """Maximum used memory over all time."""
        return max(self._vals)

    def peak_in(self, start: float, end: float) -> float:
        """Maximum used memory over ``[start, end)``."""
        if end <= start:
            return 0.0
        k0 = max(0, bisect_right(self._xs, max(0.0, start)) - 1)
        peak = 0.0
        for k in range(k0, len(self._xs)):
            if self._xs[k] >= end:
                break
            peak = max(peak, self._vals[k])
        return peak

    def _repair_blocks(self) -> None:
        """Recompute the stale tail of the block-max array."""
        vals = self._vals
        B = self._BLOCK
        n_blocks = (len(vals) + B - 1) // B
        bmax, pmax = self._bmax, self._pmax
        del bmax[self._bdirty:]
        del pmax[self._bdirty:]
        running = pmax[-1] if pmax else -math.inf
        for b in range(self._bdirty, n_blocks):
            m = max(vals[b * B:(b + 1) * B])
            bmax.append(m)
            if m > running:
                running = m
            pmax.append(running)
        self._bdirty = n_blocks

    def _rightmost_above(self, threshold: float) -> int:
        """Rightmost segment index whose value exceeds ``threshold`` (with
        the library tolerance), or -1 when none does."""
        vals = self._vals
        B = self._BLOCK
        if self._bdirty * B < len(vals):
            self._repair_blocks()
        bound = threshold + EPS
        if self._pmax[-1] <= bound:
            return -1   # nothing exceeds it: skip the block scan
        bmax = self._bmax
        for b in range(len(bmax) - 1, -1, -1):
            if bmax[b] <= bound:
                continue
            lo = b * B
            for k in range(min(len(vals), lo + B) - 1, lo - 1, -1):
                if vals[k] > bound:
                    return k
        return -1

    def earliest_fit(self, need: float) -> float:
        """Earliest ``t >= 0`` such that ``free(t') >= need`` for all
        ``t' >= t`` — the query behind ``task_mem_EST`` / ``comm_mem_EST``
        (§5.1).  Returns ``inf`` when ``need`` exceeds the capacity or the
        tail of the profile never frees enough memory.
        """
        if need <= EPS:
            return 0.0
        capacity = self.capacity
        if need > capacity + EPS:
            return math.inf
        if capacity == math.inf:
            return 0.0
        # Find the rightmost segment still too full; everything after fits.
        j = self._rightmost_above(capacity - need)
        if j < 0:
            return 0.0
        if j == len(self._vals) - 1:
            return math.inf  # tail value itself exceeds the threshold
        return self._xs[j + 1]

    # ------------------------------------------------------------------
    # introspection / invariants
    # ------------------------------------------------------------------
    def segments(self) -> Iterator[tuple[float, float, float]]:
        """Yield ``(start, end, used)`` segments; the last has ``end = inf``."""
        for k in range(len(self._xs)):
            end = self._xs[k + 1] if k + 1 < len(self._xs) else math.inf
            yield (self._xs[k], end, self._vals[k])

    def n_segments(self) -> int:
        return len(self._xs)

    def check_invariants(self) -> None:
        """Used memory must stay within ``[0, capacity]`` (tolerance ``EPS``)."""
        for k, v in enumerate(self._vals):
            if v < -1e-6:
                raise AssertionError(f"negative used memory {v} at segment {k}")
            if v > self.capacity + 1e-6:
                raise AssertionError(
                    f"used memory {v} exceeds capacity {self.capacity} at segment {k}"
                )

    def compact(self) -> None:
        """Merge adjacent segments with equal values.

        The staircase *function* is unchanged (only exactly-equal neighbours
        merge), so ``version`` is deliberately left alone: every cached
        ``earliest_fit`` answer remains valid.  Called automatically once
        the segment list doubles past the last compaction (amortized O(1)
        per mutation), keeping long schedules from accumulating dead
        breakpoints left behind by release/allocate churn.
        """
        if self._undo is not None:
            self._undo.append(("compact", self._xs, self._vals,
                               self._compact_floor))
        xs, vals = [self._xs[0]], [self._vals[0]]
        for x, v in zip(self._xs[1:], self._vals[1:]):
            if v != vals[-1]:
                xs.append(x)
                vals.append(v)
        self._xs, self._vals = xs, vals
        self._bmax = []
        self._pmax = []
        self._bdirty = 0
        self._set_compact_floor(len(xs))

    # ------------------------------------------------------------------
    # undo log
    # ------------------------------------------------------------------
    def record(self) -> None:
        """Start an undo log: every later mutation can be taken back with
        :meth:`rollback`, until :meth:`forget`.  An online planning round
        mutates its checkpoint's profiles in place under one instead of
        copying them (the copies would grow with the session's history)."""
        self._undo = []

    def mark(self) -> int:
        """The current position in the undo log, for :meth:`rollback`."""
        return len(self._undo)

    def rollback(self, mark: int = 0) -> None:
        """Undo every mutation logged after ``mark``, newest first.  The
        breakpoints, values, ``version`` and compaction state are restored
        exactly — the profile is then indistinguishable from a copy taken
        at ``mark`` (block maxima are re-derived lazily)."""
        undo = self._undo
        while len(undo) > mark:
            entry = undo.pop()
            if entry[0] == "insert":
                k = entry[1]
                del self._xs[k]
                del self._vals[k]
                # From the segment before k (k >= 1: xs[0] is never
                # inserted): when k was the last segment and the first of
                # its block, that block is now empty, and marking k would
                # leave its stale maximum past _rightmost_above's check.
                self._mark_dirty(k - 1)
            elif entry[0] == "add":
                _, i0, old, self.version = entry
                self._vals[i0:i0 + len(old)] = old
                self._mark_dirty(i0)
            else:   # compact
                _, self._xs, self._vals, floor = entry
                self._set_compact_floor(floor)
                self._bmax = []
                self._pmax = []
                self._bdirty = 0

    def forget(self) -> None:
        """Stop logging and drop the undo log."""
        self._undo = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if math.isinf(self.capacity) else f"{self.capacity:g}"
        return f"MemoryProfile(capacity={cap}, segments={len(self._xs)}, peak={self.peak():g})"
