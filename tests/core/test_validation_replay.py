"""The validator is independent of the scheduler's memory bookkeeping and
exact: its own replay gives the same peaks, bit for bit, as the
``MemoryProfile`` staircases of :func:`memory_usage`; it keeps working with
``MemoryProfile`` broken; and every broken schedule fails with the message
naming its first violated constraint."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CommEvent,
    Memory,
    MemoryProfile,
    Placement,
    Platform,
    Schedule,
    ScheduleError,
    memory_peaks,
    memory_usage,
    validate_schedule,
)
from repro.core.graph import TaskGraph
from repro.dags import dex
from repro.scheduling.heft import heft
from repro.scheduling.registry import SCHEDULERS
from repro.scheduling.state import InfeasibleScheduleError

from .test_validation import schedule_s1

HEURISTICS = ("memheft", "memminmin", "memsufferage")


# ----------------------------------------------------------------------
# bit-exact peaks
# ----------------------------------------------------------------------
#: Scales that make integer draws fractional (1/3 is inexact in binary).
SCALES = (0.1, 0.3, 1.0 / 3.0, 0.7)


@st.composite
def instances(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=30))
    scale = draw(st.sampled_from(SCALES))
    graph = TaskGraph("replay", n_classes=k)
    for task in range(n):
        graph.add_task(task, times=[
            draw(st.integers(min_value=1, max_value=40)) * scale
            for _ in range(k)])
    for v in range(1, n):
        parents = draw(st.sets(st.integers(min_value=0, max_value=v - 1),
                               max_size=3))
        for u in sorted(parents):
            graph.add_dependency(
                u, v, size=draw(st.integers(min_value=0, max_value=90)) * 0.1,
                comm=draw(st.integers(min_value=0, max_value=40)) * scale)
    procs = [draw(st.integers(min_value=1, max_value=2)) for _ in range(k)]
    speeds = [draw(st.sampled_from((0.5, 1.0, 1.5, 2.0)))
              for _ in range(sum(procs))]
    # Bounds at a fraction of HEFT's peaks (inf: unbounded).
    fractions = [draw(st.sampled_from((0.6, 0.8, 1.0, math.inf)))
                 for _ in range(k)]
    peaks = heft(graph, Platform(procs, speeds=speeds)).meta["peaks"]
    # inf * 0.0 is NaN, which Platform rejects: an inf fraction is inf.
    caps = [f if math.isinf(f) else f * p for f, p in zip(fractions, peaks)]
    return graph, Platform(procs, caps, speeds=speeds)


@settings(max_examples=120, deadline=None)
@given(instances(), st.sampled_from(("late", "eager")),
       st.sampled_from(HEURISTICS))
def test_replayed_peaks_equal_profile_peaks_bit_for_bit(instance, comm_policy,
                                                       algo):
    graph, platform = instance
    try:
        schedule = SCHEDULERS[algo](graph, platform, comm_policy=comm_policy)
    except InfeasibleScheduleError:
        return
    peaks = validate_schedule(graph, platform, schedule)
    profiles = memory_usage(graph, platform, schedule)
    helper = memory_peaks(graph, platform, schedule)
    assert list(peaks) == list(platform.memories())
    for m in platform.memories():
        assert peaks[m].hex() == profiles[m].peak().hex()
        assert helper[m].hex() == peaks[m].hex()


def test_fold_order_matters_and_is_kept():
    """0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3): the replay must add in edge
    order, as successive profile adds do, to land on the same float."""
    g = TaskGraph("fold", n_classes=1)
    for t in "abcd":
        g.add_task(t, times=[1.0])
    for u, size in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
        g.add_dependency(u, "d", size=size)
    platform = Platform([4])
    s = Schedule(platform)
    for proc, t in enumerate("abc"):
        s.add(Placement(t, proc, Memory(0), 0.0, 1.0))
    s.add(Placement("d", 3, Memory(0), 1.0, 2.0))
    peak = validate_schedule(g, platform, s)[Memory(0)]
    assert peak == 0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3)
    assert peak.hex() == memory_usage(g, platform, s)[Memory(0)].peak().hex()


# ----------------------------------------------------------------------
# independence
# ----------------------------------------------------------------------
def test_validator_never_touches_memory_profile(monkeypatch):
    graph = dex()
    platform = Platform(1, 1, 5, 5)
    schedules = [SCHEDULERS[algo](graph, platform) for algo in HEURISTICS]
    expected = [validate_schedule(graph, platform, s) for s in schedules]

    def broken(*args, **kwargs):
        raise AssertionError("the validator called MemoryProfile")

    monkeypatch.setattr(MemoryProfile, "add", broken)
    monkeypatch.setattr(MemoryProfile, "peak", broken)
    for schedule, peaks in zip(schedules, expected):
        assert validate_schedule(graph, platform, schedule) == peaks
        assert memory_peaks(graph, platform, schedule) == peaks


# ----------------------------------------------------------------------
# the first violated constraint, message for message
# ----------------------------------------------------------------------
def _place(task, proc, memory, start, finish):
    def mutate(g, s):
        s._placements[task] = Placement(task, proc, memory, start, finish)
    return mutate


def _comm(u, v, start, finish):
    def mutate(g, s):
        s._comms[(u, v)] = CommEvent(u, v, start, finish)
    return mutate


def _missing(g, s):
    del s._placements["T4"]


def _overlapping_extra_task(g, s):
    g.add_task("T5", 1, 1)
    _place("T5", 1, Memory.RED, 4.5, 5.5)(g, s)


BROKEN = {
    "missing task": (_missing, "task 'T4' is not scheduled"),
    "unknown task": (_place("T9", 0, Memory.BLUE, 10, 11),
                     "schedule places unknown tasks: [\"'T9'\"]"),
    "wrong processor": (
        _place("T2", 1, Memory.BLUE, 2, 4),
        "task 'T2' placed on processor 1, which is not attached to memory blue"),
    "bad duration": (_place("T4", 1, Memory.RED, 5, 7),
                     "task 'T4' runs for 2 but W^(red) / speed(P1) = 1.0"),
    "same-memory comm": (
        _comm("T1", "T3", 1, 1),
        "same-memory edge ('T1', 'T3') has a communication"),
    # Also overlaps T1 on processor 1: precedence is reported first.
    "precedence": (_place("T3", 1, Memory.RED, 0.5, 3.5),
                   "precedence violated on ('T1', 'T3'): 1 > 0.5"),
    "early comm": (
        _comm("T1", "T2", 0.5, 2),
        "communication ('T1', 'T2') starts at 0.5 before producer finishes at 1"),
    "late comm": (
        _comm("T1", "T2", 1, 2.5),
        "communication ('T1', 'T2') ends at 2.5 after consumer starts at 2"),
    "short comm": (_comm("T1", "T2", 1.5, 2),
                   "communication ('T1', 'T2') lasts 0.5 < C = 1.0"),
    "overlap": (
        _overlapping_extra_task,
        "tasks 'T5' and 'T4' overlap on processor 1: [4.5, 5.5) vs [5, 6)"),
    "stray comm": (_comm("T2", "T3", 4, 4.5),
                   "communication ('T2', 'T3') is not on an edge of the graph"),
    "stray comm on unknown task": (
        _comm("T9", "T2", 0, 1),
        "communication ('T9', 'T2') is not on an edge of the graph"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_schedule_fails_with_first_message(case):
    mutate, message = BROKEN[case]
    g, s = schedule_s1()
    mutate(g, s)
    with pytest.raises(ScheduleError) as info:
        validate_schedule(g, Platform(1, 1), s)
    assert str(info.value) == message


@pytest.mark.parametrize("platform, message", [
    (Platform(n_blue=1, n_red=0), "task 'T1' placed on empty resource red"),
    (Platform(1, 1, 4, 4), "red memory peak 5.0 exceeds capacity 4.0"),
    (Platform(1, 1, 1.5, 9), "blue memory peak 2.0 exceeds capacity 1.5"),
])
def test_platform_violations_keep_their_messages(platform, message):
    g, s = schedule_s1()
    with pytest.raises(ScheduleError) as info:
        validate_schedule(g, platform, s)
    assert str(info.value) == message
