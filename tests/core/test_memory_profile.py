"""Unit + property tests for the memory staircase profile."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemoryProfile


class TestBasics:
    def test_empty_profile(self):
        p = MemoryProfile(10)
        assert p.used_at(0) == 0
        assert p.used_at(1e9) == 0
        assert p.free_at(5) == 10
        assert p.peak() == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile(-1)

    def test_bounded_interval(self):
        p = MemoryProfile(10)
        p.add(4, 2, 6)
        assert p.used_at(1.9) == 0
        assert p.used_at(2) == 4          # half-open: included at start
        assert p.used_at(5.999) == 4
        assert p.used_at(6) == 0          # excluded at end
        assert p.peak() == 4

    def test_open_ended_interval(self):
        p = MemoryProfile(10)
        p.add(3, 1, None)
        assert p.used_at(1e12) == 3

    def test_release_from(self):
        p = MemoryProfile(10)
        p.add(3, 0, None)
        p.release_from(3, 5)
        assert p.used_at(4.9) == 3
        assert p.used_at(5) == 0

    def test_overlapping_adds_accumulate(self):
        p = MemoryProfile(100)
        p.add(5, 0, 10)
        p.add(7, 5, 15)
        assert p.used_at(2) == 5
        assert p.used_at(7) == 12
        assert p.used_at(12) == 7
        assert p.peak() == 12

    def test_zero_amount_is_noop(self):
        p = MemoryProfile(10)
        p.add(0, 1, 5)
        assert p.n_segments() == 1

    def test_empty_interval_is_noop(self):
        p = MemoryProfile(10)
        p.add(5, 3, 3)
        p.add(5, 4, 2)
        assert p.peak() == 0

    def test_negative_start_clamped(self):
        p = MemoryProfile(10)
        p.add(2, -5, 3)
        assert p.used_at(0) == 2

    def test_peak_in_window(self):
        p = MemoryProfile(100)
        p.add(5, 0, 10)
        p.add(7, 5, 15)
        assert p.peak_in(0, 5) == 5
        assert p.peak_in(5, 10) == 12
        assert p.peak_in(10, 20) == 7
        assert p.peak_in(20, 30) == 0
        assert p.peak_in(3, 3) == 0


class TestEarliestFit:
    def test_zero_need_is_immediate(self):
        p = MemoryProfile(10)
        p.add(10, 0, None)
        assert p.earliest_fit(0) == 0

    def test_over_capacity_never_fits(self):
        p = MemoryProfile(10)
        assert p.earliest_fit(11) == math.inf

    def test_fits_after_release(self):
        p = MemoryProfile(10)
        p.add(8, 0, 5)
        assert p.earliest_fit(4) == 5
        assert p.earliest_fit(2) == 0

    def test_must_fit_forever(self):
        # Free dips below the need later: the earliest fit is after the dip.
        p = MemoryProfile(10)
        p.add(8, 5, 9)
        assert p.earliest_fit(4) == 9     # gap at [0,5) is not enough
        assert p.earliest_fit(2) == 0

    def test_tail_blocks_forever(self):
        p = MemoryProfile(10)
        p.add(9, 3, None)                  # never released
        assert p.earliest_fit(2) == math.inf
        assert p.earliest_fit(1) == 0

    def test_infinite_capacity(self):
        p = MemoryProfile()
        p.add(1e9, 0, None)
        assert p.earliest_fit(1e12) == 0

    @pytest.mark.parametrize("spike_at", [0, 70, 200, 395])
    def test_rightmost_spike_across_many_blocks(self, spike_at):
        """Hundreds of segments span several max-blocks; only the spike
        exceeds the threshold, and the blocks after it are all low."""
        p = MemoryProfile(100)
        for t in range(400):
            p.add(1 + t % 3, t, t + 1)
        p.add(50, spike_at, spike_at + 1)
        assert p.n_segments() > 3 * MemoryProfile._BLOCK
        assert p.earliest_fit(60) == spike_at + 1
        assert p.earliest_fit(40) == 0


class TestInvariantsAndCompaction:
    def test_check_invariants_catches_negative(self):
        p = MemoryProfile(10)
        p.add(-1, 0, 5)
        with pytest.raises(AssertionError):
            p.check_invariants()

    def test_check_invariants_catches_over_capacity(self):
        p = MemoryProfile(10)
        p.add(11, 0, 5)
        with pytest.raises(AssertionError):
            p.check_invariants()

    def test_compact_preserves_semantics(self):
        p = MemoryProfile(10)
        p.add(3, 0, 5)
        p.add(2, 5, 8)
        p.add(1, 5, 8)
        p.add(-3, 5, 8)  # back to 0 on [5, 8) — mergeable with [8, inf)
        before = [p.used_at(t) for t in (0, 4.5, 6, 9)]
        p.compact()
        after = [p.used_at(t) for t in (0, 4.5, 6, 9)]
        assert before == after
        assert p.n_segments() <= 3


class TestVersion:
    """``version`` advances once per mutating event (EST memos compare it
    for equality); no-op events and compaction leave it alone."""

    def test_each_add_bumps_once(self):
        p = MemoryProfile(10)
        for k, (amount, start, end) in enumerate(
                [(3, 0, 5), (2, 1, None), (-2, 4, None)], start=1):
            p.add(amount, start, end)
            assert p.version == k

    def test_noop_events_keep_version(self):
        p = MemoryProfile(10)
        p.add(3, 0, 5)
        p.add(0, 1, 5)
        p.add(5, 3, 3)
        p.add(5, 4, 2)
        assert p.version == 1

    def test_release_from_bumps_once(self):
        p = MemoryProfile(10)
        p.add(3, 0, None)
        p.release_from(3, 5)
        assert p.version == 2


# ----------------------------------------------------------------------
# property tests against a brute-force reference
# ----------------------------------------------------------------------
interval = st.tuples(
    st.integers(min_value=1, max_value=9),    # amount
    st.integers(min_value=0, max_value=20),   # start
    st.one_of(st.none(), st.integers(min_value=1, max_value=25)),  # length
)


def _reference_used(ops, t):
    total = 0
    for amount, start, length in ops:
        end = math.inf if length is None else start + length
        if start <= t < end:
            total += amount
    return total


@given(st.lists(interval, max_size=12))
def test_used_at_matches_brute_force(ops):
    p = MemoryProfile(1000)
    for amount, start, length in ops:
        p.add(amount, start, None if length is None else start + length)
    for t in range(0, 50, 3):
        assert p.used_at(t) == pytest.approx(_reference_used(ops, t))


@given(st.lists(interval, max_size=12), st.integers(min_value=1, max_value=60))
def test_earliest_fit_matches_brute_force(ops, need):
    capacity = 60
    p = MemoryProfile(capacity)
    for amount, start, length in ops:
        p.add(amount, start, None if length is None else start + length)
    got = p.earliest_fit(need)
    # Brute force over the integer event grid (all inputs are integers).
    horizon = 60
    expected = math.inf
    for t in range(horizon + 1):
        if all(capacity - _reference_used(ops, u) >= need
               for u in range(t, horizon + 1)):
            expected = t
            break
    assert got == pytest.approx(expected)


@given(st.lists(interval, max_size=12))
def test_peak_is_max_of_used(ops):
    p = MemoryProfile(10_000)
    for amount, start, length in ops:
        p.add(amount, start, None if length is None else start + length)
    grid_max = max(_reference_used(ops, t) for t in range(0, 50))
    assert p.peak() >= grid_max
    assert p.peak() == pytest.approx(
        max((_reference_used(ops, s) for _, s, _ in ops), default=0.0))


# ----------------------------------------------------------------------
# per-event mutations against a naive dict-of-breakpoints reference: the
# staircase *function* (not its representation) must match bit for bit,
# and so must earliest_fit and peak
# ----------------------------------------------------------------------
EPS = 1e-9

#: Mostly a small grid, so events share breakpoints and values cancel or
#: coincide (0.1 + 0.2 next to 0.3), plus arbitrary floats.
float_time = st.one_of(
    st.sampled_from((-1.0, -0.0, 0.0, 0.1, 0.3, 1.0 / 3.0, 2.5, 7.0, 12.0)),
    st.floats(min_value=-2.0, max_value=20.0, allow_nan=False,
              allow_infinity=False),
)
float_amount = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, -0.1, -0.3, 1.0 / 3.0, 2.0, -2.0, 0.0)),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
              allow_infinity=False),
)
#: ("add", amount, start, end-or-None) | ("release", amount, start) |
#: ("snap", amount, start, k): an add ending exactly on the profile's
#: k-th (mod count) current breakpoint | ("fit", need) —
#: queries interleave with mutations so the profile's lazily repaired
#: block maxima are read mid-sequence.
profile_op = st.one_of(
    st.tuples(st.just("add"), float_amount, float_time,
              st.one_of(st.none(), float_time)),
    st.tuples(st.just("release"), float_amount, float_time),
    st.tuples(st.just("snap"), float_amount, float_time,
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("fit"), st.floats(min_value=0.0, max_value=40.0,
                                        allow_nan=False)),
)


class NaiveProfile:
    """Reference staircase: ``{breakpoint: used}`` rebuilt from the event
    list on every query, each breakpoint summing the amounts of the events
    covering it in event order (the profile's per-segment ``+=`` order)."""

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.events: list = []

    def add(self, amount, start, end=None):
        self.events.append((amount, max(0.0, start),
                            math.inf if end is None else end))

    def release_from(self, amount, start):
        self.add(-amount, start, None)

    def breakpoints(self) -> dict:
        times = {0.0}
        for _, start, end in self.events:
            if end > start:
                times.add(start)
                if end != math.inf:
                    times.add(end)
        used = {}
        for t in sorted(times):
            total = 0.0
            for amount, start, end in self.events:
                if start <= t < end and amount != 0.0:
                    total += amount
            used[t] = total
        return used

    def segments(self) -> list:
        """``(start, end, used)`` with equal neighbours merged."""
        return _merged((t, v) for t, v in self.breakpoints().items())

    def peak(self) -> float:
        return max(self.breakpoints().values())

    def earliest_fit(self, need: float) -> float:
        if need <= EPS:
            return 0.0
        if need > self.capacity + EPS:
            return math.inf
        bound = self.capacity - need + EPS
        for start, end, used in reversed(self.segments()):
            if used > bound:
                return end
        return 0.0


def _merged(points) -> list:
    out: list = []
    for t, v in points:
        if out and out[-1][1] == v:
            continue
        out.append([t, v])
    return [(t, out[k + 1][0] if k + 1 < len(out) else math.inf, v)
            for k, (t, v) in enumerate(out)]


def _function(profile: MemoryProfile) -> list:
    return _merged((start, used) for start, _, used in profile.segments())


def _snap_end(profile: MemoryProfile, k: int) -> float:
    """The profile's k-th (mod count) current breakpoint."""
    points = [start for start, _, _ in profile.segments()]
    return points[k % len(points)]


def _same(a: float, b: float) -> bool:
    """Equal, including the sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _check_fits(p: MemoryProfile, ref: NaiveProfile, capacity: float) -> None:
    for need in (0.0, 0.5, 3.0, capacity / 2, capacity - 0.25, capacity):
        assert _same(p.earliest_fit(need), ref.earliest_fit(need))


@settings(max_examples=400)
@given(st.lists(profile_op, max_size=60),
       st.sampled_from([7.5, 30.0, 1e9, math.inf, 0.0]))
def test_per_event_ops_match_naive_reference(ops, capacity):
    p = MemoryProfile(capacity)
    ref = NaiveProfile(capacity)
    for op in ops:
        if op[0] == "add":
            p.add(*op[1:])
            ref.add(*op[1:])
        elif op[0] == "snap":
            _, amount, start, k = op
            end = _snap_end(p, k)
            p.add(amount, start, end)
            ref.add(amount, start, end)
        elif op[0] == "release":
            p.release_from(*op[1:])
            ref.release_from(*op[1:])
        else:
            assert _same(p.earliest_fit(*op[1:]), ref.earliest_fit(*op[1:]))
    assert _function(p) == ref.segments()
    assert p.peak() == ref.peak()
    _check_fits(p, ref, capacity)


@pytest.mark.parametrize("capacity", [6.0, 14.0])
def test_long_sequence_matches_naive_reference(capacity, monkeypatch):
    """One long run: hundreds of forward-moving windows, releases and
    cancelling pairs, with fit queries interleaved.  The profile spans
    several max-blocks and auto-compacts repeatedly on the way; the
    reference never compacts."""
    compactions = []
    original = MemoryProfile.compact

    def counting_compact(self):
        compactions.append(len(self._xs))
        original(self)

    monkeypatch.setattr(MemoryProfile, "compact", counting_compact)
    rng = random.Random(20261017)
    p = MemoryProfile(capacity)
    ref = NaiveProfile(capacity)
    most = 0
    n_ops = 0
    for k in range(480):
        t = k * 0.37
        kind = rng.random()
        if kind < 0.7:
            amount = rng.choice((0.1, 0.2, 0.3, 1.0 / 3.0,
                                 rng.uniform(0.05, 2.0)))
            ops = [(amount, t + rng.uniform(-0.5, 0.5),
                    t + rng.uniform(0.1, 3.0))]
        elif kind < 0.85:
            # a cancelling pair on a fresh window: dead breakpoints
            amount = rng.uniform(0.1, 1.0)
            ops = [(amount, t, t + 0.2), (-amount, t, t + 0.2)]
        elif kind < 0.95:
            ops = [(-rng.uniform(0.0, 0.5), t + 0.1, None)]
        else:
            ops = [(rng.uniform(0.1, 1.0), t - 0.05, _snap_end(p, k))]
        for amount, start, end in ops:
            p.add(amount, start, end)
            ref.add(amount, start, end)
            n_ops += 1
        most = max(most, p.n_segments())
        if k % 20 == 19:
            for _ in range(4):
                need = rng.uniform(0.0, capacity)
                assert _same(p.earliest_fit(need), ref.earliest_fit(need))
                n_ops += 1
    assert n_ops >= 400
    assert most > 4 * MemoryProfile._BLOCK
    assert len(compactions) >= 2
    assert _function(p) == ref.segments()
    assert p.peak() == ref.peak()
    _check_fits(p, ref, capacity)


def test_compaction_keeps_the_function():
    """Allocate-then-free churn leaves dead breakpoints behind; enough of
    it crosses the auto-compaction threshold several times.  Contiguous
    windows alternate 0.1 + 0.2 with 0.3, values one ulp apart that only
    an exact merge keeps distinct.  The reference never compacts."""
    p = MemoryProfile(100.0)
    ref = NaiveProfile(100.0)
    for k in range(300):
        start, end = k * 1.25, (k + 1) * 1.25
        for prof in (p, ref):
            if k % 2:
                prof.add(0.3, start, end)
            else:
                prof.add(0.1, start, end)
                prof.add(0.2, start, end)
            # a dead breakpoint mid-window, merged away by compaction
            prof.add(0.5, start + 0.625, end)
            prof.add(-0.5, start + 0.625, end)
    assert p.n_segments() < 2 * 300
    assert _function(p) == ref.segments()
    assert p.peak() == ref.peak()


# ----------------------------------------------------------------------
# undo log: rollback is exact
# ----------------------------------------------------------------------
def _exact_state(profile: MemoryProfile) -> tuple:
    """Everything a later operation can observe: breakpoints and values
    bit for bit (not merged), the version, the compaction floor and the
    auto-compaction threshold derived from it."""
    return (list(profile.segments()), profile.version,
            profile._compact_floor, profile._compact_at)


def _apply(profile: MemoryProfile, ops) -> None:
    for op in ops:
        if op[0] == "add":
            profile.add(*op[1:])
        elif op[0] == "snap":
            _, amount, start, k = op
            profile.add(amount, start, _snap_end(profile, k))
        elif op[0] == "release":
            profile.release_from(*op[1:])
        else:
            profile.earliest_fit(*op[1:])


@settings(max_examples=300)
@given(st.lists(profile_op, max_size=30), st.lists(profile_op, max_size=30),
       st.lists(profile_op, max_size=30), st.sampled_from([7.5, 30.0, 1e9]))
def test_rollback_restores_the_profile_exactly(before, logged, after,
                                               capacity):
    """Ops, then ``record`` and more ops with a mark in between: rolling
    back to the mark (or to the start) leaves a profile that is exactly a
    fresh one given the same ops up to there, and stays so under further
    ops and queries."""
    half = len(logged) // 2
    p = MemoryProfile(capacity)
    at_record = MemoryProfile(capacity)
    at_mark = MemoryProfile(capacity)
    for profile, ops in ((p, before), (at_record, before),
                         (at_mark, before + logged[:half])):
        _apply(profile, ops)
    p.record()
    _apply(p, logged[:half])
    mark = p.mark()
    _apply(p, logged[half:])
    p.rollback(mark)
    assert _exact_state(p) == _exact_state(at_mark)
    p.rollback()
    p.forget()
    assert _exact_state(p) == _exact_state(at_record)
    _apply(p, after)
    _apply(at_record, after)
    assert _exact_state(p) == _exact_state(at_record)
    for need in (0.0, 0.5, 3.0, capacity / 2, capacity - 0.25, capacity):
        assert p.earliest_fit(need) == at_record.earliest_fit(need)


def test_rollback_undoes_compaction():
    """Churn past the auto-compaction threshold under the log: rollback
    restores the uncompacted breakpoints and the compaction floor."""
    p = MemoryProfile(100.0)
    for k in range(40):
        p.add(0.3, k * 1.0, k + 0.5)
    before = _exact_state(p)
    p.record()
    for k in range(40, 400):
        p.add(0.5, k + 0.25, k + 0.75)
        p.add(-0.5, k + 0.25, k + 0.75)
    assert p._compact_floor != before[2]    # compaction did run
    assert p._compact_at != before[3]
    p.rollback()
    p.forget()
    assert _exact_state(p) == before
    assert p._compact_at == max(MemoryProfile._COMPACT_MIN,
                                2 * p._compact_floor)
    p.add(1.0, 0.0, None)
    assert p.peak() == pytest.approx(1.3)


def test_rollback_of_a_tail_breakpoint_keeps_block_maxima_exact():
    """Undoing a breakpoint appended as the first segment of a new max
    block empties that block: the next query must drop its stale maximum
    instead of treating the remaining blocks as already repaired."""
    B = MemoryProfile._BLOCK
    p = MemoryProfile(1000.0)
    for k in range(2 * B - 1):    # 2B segments, no two values equal
        p.add(1.0 + k / 1000.0, float(k + 1), None)
    assert p.n_segments() == 2 * B
    p.earliest_fit(1.0)           # repair: two full blocks
    p.record()
    p.add(100.0, float(3 * B), None)   # segment 2B opens a third block
    assert p.earliest_fit(800.0) == math.inf
    p.rollback()
    p.forget()
    assert p.earliest_fit(1.0) == 0.0
    vals = p._vals
    assert p._bmax == [max(vals[b * B:(b + 1) * B])
                       for b in range((len(vals) + B - 1) // B)]
