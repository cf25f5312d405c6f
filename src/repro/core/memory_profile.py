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

``earliest_fit`` is the hot query of the EST kernel.  Rather than rebuilding
an O(l) suffix-max array after every mutation (the seed implementation's
hidden quadratic term), the profile keeps *block maxima* over the segment
values: mutations dirty only the blocks at/after their leftmost touched
index — almost always near the staircase's tail, since schedules grow
forward in time — and the query scans blocks right-to-left for the
rightmost segment exceeding the threshold, skipping whole blocks.  Both the
repair and the scan are O(l / B + B) in the common case.  Unbounded
profiles skip the machinery entirely (any amount fits at t = 0).
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
    kernel keys its ``earliest_fit`` memoisation on it.  Merging adjacent
    equal-valued segments (:meth:`compact`) leaves the function — and hence
    the version — unchanged, which lets long schedules compact away dead
    breakpoints without invalidating any cached EST component.
    """

    __slots__ = ("capacity", "version", "_xs", "_vals", "_bmax", "_bdirty",
                 "_compact_floor")

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
        self._bdirty = 0               # blocks >= _bdirty are stale
        self._compact_floor = 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _mark_dirty(self, index: int) -> None:
        """Record that segment values at/after ``index`` changed or shifted."""
        block = index // self._BLOCK
        if block < self._bdirty:
            self._bdirty = block

    def _breakpoint_index(self, t: float) -> int:
        """Index of the segment containing ``t``, inserting a breakpoint at
        ``t`` if needed; ``t`` must be >= 0."""
        k = bisect_right(self._xs, t) - 1
        if self._xs[k] != t:
            self._xs.insert(k + 1, t)
            self._vals.insert(k + 1, self._vals[k])
            k += 1
            self._mark_dirty(k)
        return k

    def add(self, amount: float, start: float, end: Optional[float] = None) -> None:
        """Add ``amount`` of used memory on ``[start, end)``.

        ``end=None`` extends to +inf.  Negative amounts release memory.
        ``start`` is clamped to 0.  Empty or zero-amount intervals are no-ops.
        """
        if amount == 0.0:
            return
        start = max(0.0, start)
        if end is not None and end <= start:
            return
        i0 = self._breakpoint_index(start)
        i1 = len(self._xs) if end is None else self._breakpoint_index(end)
        for k in range(i0, i1):
            self._vals[k] += amount
        self._mark_dirty(i0)
        self.version += 1
        if len(self._xs) > max(self._COMPACT_MIN, 2 * self._compact_floor):
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
        del self._bmax[self._bdirty:]
        for b in range(self._bdirty, n_blocks):
            self._bmax.append(max(vals[b * B:(b + 1) * B]))
        self._bdirty = n_blocks

    def _rightmost_above(self, threshold: float) -> int:
        """Rightmost segment index whose value exceeds ``threshold`` (with
        the library tolerance), or -1 when none does."""
        self._repair_blocks()
        vals = self._vals
        B = self._BLOCK
        bound = threshold + EPS
        for b in range(len(self._bmax) - 1, -1, -1):
            if self._bmax[b] <= bound:
                continue
            lo = b * B
            for k in range(min(len(vals), lo + B) - 1, lo - 1, -1):
                if vals[k] > bound:
                    return k
        return -1

    def earliest_fit(self, need: float, not_before: float = 0.0) -> float:
        """Earliest ``t >= not_before`` such that ``free(t') >= need`` for all
        ``t' >= t`` — the query behind ``task_mem_EST`` / ``comm_mem_EST``
        (§5.1).  Returns ``inf`` when ``need`` exceeds the capacity or the
        tail of the profile never frees enough memory.
        """
        if need <= EPS:
            return max(0.0, not_before)
        if need > self.capacity + EPS:
            return math.inf
        if math.isinf(self.capacity):
            return max(0.0, not_before)
        # Find the rightmost segment still too full; everything after fits.
        j = self._rightmost_above(self.capacity - need)
        if j < 0:
            return max(0.0, not_before)
        if j == len(self._vals) - 1:
            return math.inf  # tail value itself exceeds the threshold
        return max(self._xs[j + 1], not_before)

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
        xs, vals = [self._xs[0]], [self._vals[0]]
        for x, v in zip(self._xs[1:], self._vals[1:]):
            if v != vals[-1]:
                xs.append(x)
                vals.append(v)
        self._xs, self._vals = xs, vals
        self._bmax = []
        self._bdirty = 0
        self._compact_floor = len(xs)

    def copy(self) -> "MemoryProfile":
        clone = MemoryProfile(self.capacity)
        clone.version = self.version
        clone._xs = list(self._xs)
        clone._vals = list(self._vals)
        clone._bmax = list(self._bmax)
        clone._bdirty = self._bdirty
        clone._compact_floor = self._compact_floor
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if math.isinf(self.capacity) else f"{self.capacity:g}"
        return f"MemoryProfile(capacity={cap}, segments={len(self._xs)}, peak={self.peak():g})"
