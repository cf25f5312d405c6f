"""Heuristic runtime scaling with graph size, and the engine benchmarks.

The paper quotes a worst-case complexity of ``O(n^2 (n + m))`` for both
heuristics (§5.2).  The pytest-benchmark half of this file times MemHEFT
and MemMinMin on a size ladder of the LargeRandSet family — the measured
growth should stay polynomial and comfortably handle the 1000-task paper
scale.

Run as a script to benchmark the engine end to end::

    PYTHONPATH=src python benchmarks/bench_scaling.py [sizes...] \
        [--jobs N] [--json PATH] [--sweep-graphs G] [--sweep-size S]

Three benchmark sections, each emitted into a machine-readable
``BENCH_scaling.json`` (schema documented in ``benchmarks/README.md``) so
the perf trajectory is tracked across PRs:

* **kernel** — the unified incremental EST kernel against the seed
  implementation (``seed`` = from-scratch ESTs + O(l) suffix-max profile
  rebuilds, reproduced by ``LegacySuffixMaxProfile``; ``fresh`` =
  from-scratch ESTs over block-max profiles; ``incremental`` = the
  shipped kernel; all placement-identical).
* **selection** — the lazy candidate heaps of
  :mod:`repro.scheduling.candidates` against the naive full-rescan
  selection loops (``lazy=True`` vs ``lazy=False``), on the standard
  LargeRandSet shape and on a wide variant where the available set — and
  so the naive O(n²) rescan — is large.
* **sweep** (with ``--jobs N``) — a Figure-12-style normalised sweep run
  serially and sharded over N worker processes; the cells are asserted
  identical and the wall-clock speedup reported.  ``cpu_count`` is
  recorded alongside: on a single-core container the parallel path can
  only lose.

All compared configurations produce decision-for-decision identical
schedules (asserted on every run).
"""

import argparse
import math
import os
import platform as platform_mod
import sys
import time

import pytest

from repro._util import EPS
from repro.core.memory_profile import MemoryProfile
from repro.core.platform import Platform
from repro.core.validation import validate_schedule
from repro.dags.daggen import random_dag
from repro.dags.datasets import large_rand_set
from repro.experiments.figures import RAND_PLATFORM
from repro.experiments.sweep import default_alphas, normalized_sweep, spread_speeds
from repro.scheduling.heft import heft
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.state import SchedulerState
from repro.scheduling.sufferage import memsufferage

SIZES = (25, 50, 100, 200)


@pytest.mark.parametrize("size", SIZES)
def test_bench_memheft_scaling(benchmark, size):
    graph = random_dag(size=size, rng=size,
                       w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))
    schedule = benchmark(memheft, graph, RAND_PLATFORM)
    assert len(schedule) == size


@pytest.mark.parametrize("size", SIZES)
def test_bench_memminmin_scaling(benchmark, size):
    graph = random_dag(size=size, rng=size,
                       w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))
    schedule = benchmark(memminmin, graph, RAND_PLATFORM)
    assert len(schedule) == size


# ----------------------------------------------------------------------
# incremental-kernel comparison (script mode)
# ----------------------------------------------------------------------
class LegacySuffixMaxProfile(MemoryProfile):
    """The seed's ``earliest_fit``: full suffix-max rebuild per mutation."""

    __slots__ = ("_suffix_max", "_sm_version")

    def __init__(self, capacity: float = math.inf) -> None:
        super().__init__(capacity)
        self._suffix_max = None
        self._sm_version = -1

    def _ensure_suffix_max(self) -> list:
        if self._sm_version != self.version or self._suffix_max is None:
            sm = [0.0] * len(self._vals)
            running = -math.inf
            for k in range(len(self._vals) - 1, -1, -1):
                running = max(running, self._vals[k])
                sm[k] = running
            self._suffix_max = sm
            self._sm_version = self.version
        return self._suffix_max

    def earliest_fit(self, need: float, not_before: float = 0.0) -> float:
        if need <= EPS:
            return max(0.0, not_before)
        if need > self.capacity + EPS:
            return math.inf
        threshold = self.capacity - need
        sm = self._ensure_suffix_max()
        lo, hi = 0, len(sm)
        while lo < hi:
            mid = (lo + hi) // 2
            if sm[mid] <= threshold + EPS:
                hi = mid
            else:
                lo = mid + 1
        if lo == len(sm):
            return math.inf
        t = self._xs[lo] if lo > 0 else 0.0
        return max(t, not_before)


def _make_state(graph, platform, mode: str) -> SchedulerState:
    state = SchedulerState(graph, platform,
                           incremental=(mode == "incremental"))
    if mode == "seed":
        state.mem = {m: LegacySuffixMaxProfile(platform.capacity(m))
                     for m in state.memories}
    return state


def _run_memheft(graph, platform, mode: str):
    from repro.scheduling.ranks import rank_order
    state = _make_state(graph, platform, mode)
    remaining = rank_order(graph)
    while remaining:
        for index, task in enumerate(remaining):
            if not state.is_ready(task):
                continue
            best = state.best_est(task)
            if best is None:
                continue
            state.commit(best)
            remaining.pop(index)
            break
        else:
            raise RuntimeError("infeasible")
    return state.finalize("memheft")


def _run_memminmin(graph, platform, mode: str):
    state = _make_state(graph, platform, mode)
    index = {t: k for k, t in enumerate(graph.topological_order())}
    available = set(graph.roots())
    while available:
        best = None
        for task in sorted(available, key=index.__getitem__):
            cand = state.best_est(task)
            if cand is None:
                continue
            if best is None or cand.eft < best.eft - EPS:
                best = cand
        if best is None:
            raise RuntimeError("infeasible")
        state.commit(best)
        available.discard(best.task)
        available.update(state.pop_newly_ready())
    return state.finalize("memminmin")


def _assert_identical(schedules: dict, reference: str, graph, label: str):
    ref = schedules[reference]
    for mode, sched in schedules.items():
        if mode == reference:
            continue
        for t in graph.tasks():
            assert sched.placement(t) == ref.placement(t), \
                f"{label}/{mode} diverged on {t!r}"


def _bench_platforms(graph):
    base = heft(graph, Platform(1, 1))
    ref = max(base.meta["peak_blue"], base.meta["peak_red"])
    return [
        ("unbounded", Platform(1, 1)),
        ("bounded@0.8", Platform(1, 1).with_uniform_bound(0.8 * ref)),
    ]


def bench_kernel(size: int) -> list[dict]:
    """seed vs fresh vs incremental EST kernel (identical schedules)."""
    graph = random_dag(size=size, rng=size,
                       w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))
    runners = [("memheft", _run_memheft, memheft),
               ("memminmin", _run_memminmin, memminmin)]
    rows = []
    for plat_name, platform in _bench_platforms(graph):
        for algo_name, runner, shipped_fn in runners:
            times = {}
            schedules = {}
            for mode in ("seed", "fresh", "incremental"):
                t0 = time.perf_counter()
                schedules[mode] = runner(graph, platform, mode)
                times[mode] = time.perf_counter() - t0
            # Anchor the comparison to the *shipped* entry point so the
            # bench loops cannot silently drift from the real heuristics.
            schedules["shipped"] = shipped_fn(graph, platform)
            _assert_identical(schedules, "incremental", graph, algo_name)
            speedup = times["seed"] / times["incremental"]
            print(f"kernel    n={size:5d} {algo_name:12s} {plat_name:12s} "
                  f"seed={times['seed']:7.3f}s fresh={times['fresh']:7.3f}s "
                  f"incremental={times['incremental']:7.3f}s"
                  f" speedup={speedup:5.2f}x")
            rows.append({
                "n": size, "algorithm": algo_name, "platform": plat_name,
                "seed_s": times["seed"], "fresh_s": times["fresh"],
                "incremental_s": times["incremental"],
                "speedup_seed_over_incremental": speedup,
            })
    return rows


def bench_selection(size: int) -> list[dict]:
    """Lazy candidate heaps vs naive rescan loops (identical schedules)."""
    shapes = [
        ("standard", dict(w_range=(1, 100), c_range=(1, 100),
                          f_range=(1, 100))),
        # A wide DAG keeps the available set large — the regime where the
        # naive per-step rescan is O(n) and the heap pays off.
        ("wide", dict(width=0.8, density=0.3, jumps=2,
                      w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))),
    ]
    heuristics = [("memheft", memheft), ("memminmin", memminmin),
                  ("memsufferage", memsufferage)]
    rows = []
    for shape_name, kwargs in shapes:
        graph = random_dag(size=size, rng=size, **kwargs)
        for plat_name, platform in _bench_platforms(graph):
            for algo_name, fn in heuristics:
                t0 = time.perf_counter()
                lazy = fn(graph, platform, lazy=True)
                lazy_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                naive = fn(graph, platform, lazy=False)
                naive_s = time.perf_counter() - t0
                _assert_identical({"lazy": lazy, "naive": naive}, "lazy",
                                  graph, algo_name)
                speedup = naive_s / lazy_s
                print(f"selection n={size:5d} {algo_name:12s} "
                      f"{shape_name:8s} {plat_name:12s} "
                      f"lazy={lazy_s:7.3f}s naive={naive_s:7.3f}s "
                      f"speedup={speedup:5.2f}x")
                rows.append({
                    "n": size, "algorithm": algo_name, "graph": shape_name,
                    "platform": plat_name, "lazy_s": lazy_s,
                    "naive_s": naive_s, "speedup_naive_over_lazy": speedup,
                })
    return rows


def bench_hetero(size: int, spreads=(0.0, 0.25, 0.5)) -> list[dict]:
    """Heterogeneous (per-processor speeds) mode: wall-clock and makespan
    of the per-finish-time kernel across speed spreads on a 4+2 hybrid
    platform.  Every schedule is re-checked by the speed-aware validator,
    and the spread-0 run is asserted placement-identical to the plain
    homogeneous platform (the uniform-class fast path)."""
    graph = random_dag(size=size, rng=size,
                       w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))
    base = Platform(4, 2)
    heuristics = [("memheft", memheft), ("memminmin", memminmin),
                  ("memsufferage", memsufferage)]
    plain = {name: fn(graph, base) for name, fn in heuristics}
    rows = []
    for spread in spreads:
        platform = spread_speeds(base, spread)
        for algo_name, fn in heuristics:
            t0 = time.perf_counter()
            schedule = fn(graph, platform)
            wall = time.perf_counter() - t0
            validate_schedule(graph, platform, schedule)
            if spread == 0.0:
                _assert_identical({"hetero0": schedule,
                                   "plain": plain[algo_name]},
                                  "plain", graph, algo_name)
            ratio = schedule.makespan / plain[algo_name].makespan
            print(f"hetero    n={size:5d} {algo_name:12s} "
                  f"spread={spread:4.2f} {wall:7.3f}s "
                  f"makespan={schedule.makespan:10.2f} vs_hom={ratio:5.3f}")
            rows.append({
                "n": size, "algorithm": algo_name, "spread": spread,
                "wall_s": wall, "makespan": schedule.makespan,
                "ratio_to_homogeneous": ratio,
            })
    return rows


def bench_sweep(jobs: int, n_graphs: int, size: int, n_alphas: int) -> dict:
    """Figure-12-style normalised sweep, serial vs sharded over ``jobs``
    processes, cells asserted byte-identical."""
    graphs = large_rand_set(n_graphs, size)
    alphas = default_alphas(n_alphas)
    t0 = time.perf_counter()
    serial = normalized_sweep(graphs, RAND_PLATFORM, alphas=alphas, jobs=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = normalized_sweep(graphs, RAND_PLATFORM, alphas=alphas,
                                jobs=jobs)
    parallel_s = time.perf_counter() - t0
    identical = (serial.cells == parallel.cells
                 and serial.alphas == parallel.alphas
                 and serial.algorithms == parallel.algorithms)
    assert identical, "parallel sweep diverged from the serial reference"
    speedup = serial_s / parallel_s
    print(f"sweep     {n_graphs} graphs x {size} tasks x {n_alphas} alphas "
          f"serial={serial_s:.2f}s jobs={jobs}: {parallel_s:.2f}s "
          f"speedup={speedup:.2f}x identical_cells={identical} "
          f"(cpu_count={os.cpu_count()})")
    return {
        "jobs": jobs, "n_graphs": n_graphs, "graph_size": size,
        "n_alphas": n_alphas, "serial_s": serial_s,
        "parallel_s": parallel_s, "speedup": speedup,
        "identical_cells": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="engine benchmarks (kernel / selection / sweep); "
                    "emits BENCH_scaling.json")
    parser.add_argument("sizes", nargs="*", type=int, default=None,
                        help="graph sizes for the kernel/selection benches "
                             "(default: 500 1000 2000)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="also run the sweep bench sharded over N "
                             "processes (0 = one per CPU)")
    parser.add_argument("--json", default="BENCH_scaling.json",
                        help="output path ('' disables)")
    parser.add_argument("--sweep-graphs", type=int, default=8,
                        help="graphs in the sweep bench")
    parser.add_argument("--sweep-size", type=int, default=300,
                        help="tasks per graph in the sweep bench")
    parser.add_argument("--sweep-alphas", type=int, default=8,
                        help="alpha grid points in the sweep bench")
    parser.add_argument("--skip-kernel", action="store_true")
    parser.add_argument("--skip-selection", action="store_true")
    parser.add_argument("--hetero", action="store_true",
                        help="also run the heterogeneous (per-processor "
                             "speeds) mode: speed-spread ladder on a 4+2 "
                             "platform, schedules validated and the "
                             "spread-0 case asserted identical to the "
                             "homogeneous fast path")
    args = parser.parse_args(argv)
    sizes = args.sizes or [500, 1000, 2000]

    report = {
        "bench": "scaling",
        "schema_version": 3,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "machine": platform_mod.platform(),
        "cpu_count": os.cpu_count(),
        "sizes": sizes,
    }
    if not args.skip_kernel:
        print("incremental EST kernel vs seed implementation "
              "(identical schedules asserted)")
        report["kernel"] = [row for n in sizes for row in bench_kernel(n)]
    if not args.skip_selection:
        print("lazy candidate selection vs naive rescan "
              "(identical schedules asserted)")
        report["selection"] = [row for n in sizes
                               for row in bench_selection(n)]
    if args.hetero:
        print("heterogeneous kernel: speed-spread ladder "
              "(validated; spread 0 asserted == homogeneous)")
        report["hetero"] = [row for n in sizes for row in bench_hetero(n)]
    if args.jobs != 1:
        report["sweep"] = bench_sweep(args.jobs, args.sweep_graphs,
                                      args.sweep_size, args.sweep_alphas)
    if args.json:
        from repro._util import atomic_write_json
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
