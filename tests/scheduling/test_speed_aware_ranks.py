"""Speed-aware upward ranks: the execution term of the MemHEFT priority
becomes ``mean_c(W^(c)/max_speed(c))`` when a platform is supplied, while
speed-1.0 platforms must stay bit-identical to the speed-less formula."""

import math

import pytest

from repro import Platform
from repro.dags import random_dag
from repro.dags.toy import dex
from repro.scheduling.memheft import memheft
from repro.scheduling.ranks import rank_order, upward_ranks

from .scan_reference import memheft_sorted_scan


class TestSpeedAwareRanks:
    def test_speed_one_platform_is_bitwise_identical(self):
        graph = random_dag(size=30, rng=1)
        plain = upward_ranks(graph)
        aware = upward_ranks(graph, Platform(2, 2))
        assert plain == aware  # exact float equality, not approx

    def test_speed_one_rank_order_identical(self):
        graph = random_dag(size=30, rng=2)
        assert rank_order(graph) == rank_order(graph,
                                               platform=Platform(1, 3))
        assert rank_order(graph, rng=5) == rank_order(
            graph, rng=5, platform=Platform(1, 3))

    def test_fast_class_shrinks_execution_term(self):
        g = dex()
        slow = upward_ranks(g, Platform(1, 1))
        # Red processors 4x faster: every rank's red execution term /= 4.
        fast = upward_ranks(g, Platform(1, 1, speeds=[1.0, 4.0]))
        for task in g.tasks():
            assert fast[task] <= slow[task]
        # A sink's rank is exactly its mean normalised time.
        sink = [t for t in g.tasks() if not list(g.children(t))][0]
        times = g.times(sink)
        assert fast[sink] == (times[0] / 1.0 + times[1] / 4.0) / 2

    def test_heterogeneous_within_class_uses_fastest(self):
        g = dex()
        ranks = upward_ranks(g, Platform(2, 1, speeds=[1.0, 3.0, 2.0]))
        sink = [t for t in g.tasks() if not list(g.children(t))][0]
        times = g.times(sink)
        assert ranks[sink] == (times[0] / 3.0 + times[1] / 2.0) / 2

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="memory classes"):
            upward_ranks(dex(), Platform([1, 1, 1], [math.inf] * 3))

    def test_procless_class_keeps_speed_one(self):
        from repro.core.graph import TaskGraph
        g = TaskGraph(n_classes=3)
        g.add_task("a", times=(2.0, 4.0, 6.0))
        ranks = upward_ranks(g, Platform([1, 1, 0]))
        assert ranks["a"] == (2.0 + 4.0 + 6.0) / 3


class TestMemheftUsesSpeedAwareRanks:
    def test_speed_one_memheft_unchanged(self):
        """memheft passes the platform into rank_order; on speed-1.0
        platforms the schedule must be exactly what the reference rescan
        commits (the golden-schedule suite pins this globally; spot-check
        here)."""
        graph = random_dag(size=25, rng=7)
        platform = Platform(2, 1, 150.0, 150.0)
        a = memheft(graph, platform)
        b = memheft_sorted_scan(graph, platform)
        assert a.makespan == b.makespan

    def test_heterogeneous_prioritises_by_normalised_time(self):
        """On a heterogeneous platform the rank list reorders: a task that
        is slow in raw time but lands on a fast class can outrank one that
        looked heavier under raw averaging."""
        from repro.core.graph import TaskGraph
        g = TaskGraph("pair")
        # Two independent tasks + a shared sink so ranks matter.
        g.add_task("gpuish", w_blue=8.0, w_red=8.0)
        g.add_task("cpuish", w_blue=6.0, w_red=6.0)
        g.add_task("sink", w_blue=1.0, w_red=1.0)
        g.add_dependency("gpuish", "sink", size=1.0, comm=1.0)
        g.add_dependency("cpuish", "sink", size=1.0, comm=1.0)
        plain = rank_order(g)
        assert plain.index("cpuish") > plain.index("gpuish")  # 8 > 6 raw
        fast_blue = Platform(1, 1, speeds=[4.0, 1.0])
        aware = rank_order(g, platform=fast_blue)
        # Normalised: gpuish -> (8/4 + 8)/2 = 5, cpuish -> (6/4 + 6)/2 = 3.75
        assert aware.index("cpuish") > aware.index("gpuish")
        ranks = upward_ranks(g, fast_blue)
        assert ranks["gpuish"] > ranks["cpuish"]

    def test_heterogeneous_memheft_schedule_still_valid(self):
        from repro import validate_schedule
        graph = random_dag(size=20, rng=3)
        platform = Platform(2, 2, 120.0, 120.0,
                            speeds=[1.0, 2.0, 0.5, 1.0])
        schedule = memheft(graph, platform)
        validate_schedule(graph, platform, schedule)
