"""Heuristic runtime scaling with graph size, and the engine benchmarks.

The paper quotes a worst-case complexity of ``O(n^2 (n + m))`` for both
heuristics (§5.2).  The pytest-benchmark half of this file times MemHEFT
and MemMinMin on a size ladder of the LargeRandSet family — the measured
growth should stay polynomial and comfortably handle the 1000-task paper
scale.

Run as a script to benchmark the engine end to end::

    PYTHONPATH=src python benchmarks/bench_scaling.py [sizes...] \
        [--jobs N] [--json PATH] [--sweep-graphs G] [--sweep-size S]

Up to two benchmark sections, each emitted into a machine-readable
``BENCH_scaling.json`` (schema documented in ``benchmarks/README.md``):

* **sweep** (with ``--jobs N``) — a Figure-12-style normalised sweep run
  serially and sharded over N worker processes; the cells are asserted
  identical and the wall-clock speedup reported.  ``cpu_count`` is
  recorded alongside: on a single-core container the parallel path can
  only lose.
* **hetero** (with ``--hetero``) — per-processor speed spreads on a 4+2
  platform, every schedule validated.

All compared configurations produce decision-for-decision identical
schedules (asserted on every run).
"""

import argparse
import os
import platform as platform_mod
import sys
import time

import pytest

from repro.core.platform import Platform
from repro.core.validation import validate_schedule
from repro.dags.daggen import random_dag
from repro.dags.datasets import large_rand_set
from repro.experiments.figures import RAND_PLATFORM
from repro.experiments.sweep import default_alphas, normalized_sweep, spread_speeds
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
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


def _assert_identical(schedules: dict, reference: str, graph, label: str):
    ref = schedules[reference]
    for mode, sched in schedules.items():
        if mode == reference:
            continue
        for t in graph.tasks():
            assert sched.placement(t) == ref.placement(t), \
                f"{label}/{mode} diverged on {t!r}"


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
        description="engine benchmarks (hetero / sweep); "
                    "emits BENCH_scaling.json")
    parser.add_argument("sizes", nargs="*", type=int, default=None,
                        help="graph sizes for the hetero bench "
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
        "schema_version": 5,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "machine": platform_mod.platform(),
        "cpu_count": os.cpu_count(),
        "sizes": sizes,
    }
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
