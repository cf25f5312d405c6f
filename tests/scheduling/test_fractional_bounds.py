"""Memory bounds must hold for fractional inputs, not only integer ones.

Every golden and paper workload uses integer times and sizes.  With
fractional ones, ``EST - Cmax`` can round to one ulp below the fit
breakpoint ``comm_fit`` it was derived from, and a late transfer then
starts inside the still-full staircase segment.  These tests pin the
shrunk reproducer and fuzz fractional instances on k = 1, 2, 3 memories
under both transfer policies: every schedule a heuristic returns must
validate, and infeasibility may only surface as
:class:`InfeasibleScheduleError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Platform, validate_schedule
from repro.core.graph import TaskGraph
from repro.scheduling.heft import heft
from repro.scheduling.registry import SCHEDULERS
from repro.scheduling.state import InfeasibleScheduleError

from .scan_reference import reference

HEURISTICS = ("memheft", "memminmin", "memsufferage")


def _late_transfer_instance():
    """Before the fix, MemHEFT and MemSufferage placed 12.0 units in the
    11.0-unit blue memory: the late copy of the 8.0-unit file 2 -> 3
    started at 6.699999999999999, inside the segment that frees at 6.7."""
    times = {0: (2.1, 3.3), 1: (1.8, 1.5), 2: (6.3, 11.2),
             3: (11.9, 12.6), 4: (0.4, 0.5)}
    graph = TaskGraph("late-transfer-ulp")
    for task, (w_blue, w_red) in times.items():
        graph.add_task(task, w_blue=w_blue, w_red=w_red)
    for u, v, size, comm in ((1, 3, 2.0, 9.0), (2, 3, 8.0, 10.0),
                             (2, 4, 2.0, 6.0)):
        graph.add_dependency(u, v, size=size, comm=comm)
    return graph, Platform(1, 1, mem_blue=11.0, mem_red=4.0)


@pytest.mark.parametrize("path", ["default", "reference"])
@pytest.mark.parametrize("algo", HEURISTICS)
def test_late_transfer_stays_within_bounds(algo, path):
    graph, platform = _late_transfer_instance()
    run = SCHEDULERS[algo]
    if path == "reference":
        run = reference(run)
    schedule = run(graph, platform)
    peaks = validate_schedule(graph, platform, schedule)
    assert peaks[platform.memories()[0]] <= 11.0


#: Scales that make integer draws fractional (1/3 is inexact in binary).
TIME_SCALES = (0.1, 0.3, 1.0 / 3.0, 0.7)


@st.composite
def fractional_instances(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=5, max_value=40))
    scale = draw(st.sampled_from(TIME_SCALES))
    graph = TaskGraph("fractional", n_classes=k)
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
    fractions = [draw(st.sampled_from((0.3, 0.5, 0.7, 0.8, 1.0)))
                 for _ in range(k)]
    return graph, procs, fractions


@settings(max_examples=150)
@given(fractional_instances(), st.sampled_from(("late", "eager")))
def test_fractional_schedules_respect_bounds(instance, comm_policy):
    graph, procs, fractions = instance
    peaks = heft(graph, Platform(procs)).meta["peaks"]
    platform = Platform(procs, [f * peak for f, peak in zip(fractions,
                                                             peaks)])
    for algo in HEURISTICS:
        try:
            schedule = SCHEDULERS[algo](graph, platform,
                                        comm_policy=comm_policy)
        except InfeasibleScheduleError:
            continue
        validate_schedule(graph, platform, schedule)
