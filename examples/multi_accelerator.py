#!/usr/bin/env python
"""Beyond the paper: scheduling on a node with CPU + two accelerator types.

The paper's conclusion (§7) proposes extending the heuristics to platforms
with several accelerator types and more than two memories.  The core
engine is k-memory (``Platform([...], [...])`` with one processor count and
one capacity per memory class, ``TaskGraph(n_classes=k)`` with one time per
class), and the paper's dual-memory platform is its ``k = 2`` case.  This
example schedules a random workflow on a three-memory node (CPUs, a
big-memory accelerator, a fast small-memory accelerator) and shows how the
memory-aware placement shifts work between accelerators as their
capacities shrink.

Run:  python examples/multi_accelerator.py
"""

import numpy as np

from repro import Platform, TaskGraph, memheft, validate_schedule
from repro.scheduling import InfeasibleScheduleError

rng = np.random.default_rng(7)
CLASSES = ("cpu", "accel-A", "accel-B")

# A layered random workflow: accel-B is ~8x faster than CPU, accel-A ~3x.
g = TaskGraph("workflow", n_classes=3)
n = 40
for k in range(n):
    base = float(rng.integers(8, 32))
    g.add_task(k, times=(base, base / 3, base / 8))
for i in range(n):
    for j in range(i + 1, min(i + 6, n)):
        if rng.random() < 0.3:
            g.add_dependency(i, j, size=float(rng.integers(1, 6)),
                             comm=float(rng.integers(1, 4)))

# 8 CPU cores, 2 of accelerator A, 1 of accelerator B.
platform = Platform([8, 2, 1])
base = memheft(g, platform)
peaks = [validate_schedule(g, platform, base)[m] for m in platform.memories()]
print(f"{g.n_tasks}-task workflow on (8 CPU, 2 accel-A, 1 accel-B)")
print(f"unbounded: makespan {base.makespan:g}, peaks "
      + ", ".join(f"{c}={p:g}" for c, p in zip(CLASSES, peaks)))

print(f"\n{'accel caps':>12} | {'makespan':>9} | tasks per class")
print("-" * 55)
cap = max(peaks[1], peaks[2], 1.0)
while cap >= 1:
    bounded = Platform([8, 2, 1], [float("inf"), cap, cap])
    try:
        s = memheft(g, bounded)
        validate_schedule(g, bounded, s)
        counts = [0, 0, 0]
        for p in s.placements():
            counts[p.cls] += 1
        dist = ", ".join(f"{c}:{k}" for c, k in zip(CLASSES, counts))
        print(f"{cap:12.1f} | {s.makespan:9.1f} | {dist}")
    except InfeasibleScheduleError:
        print(f"{cap:12.1f} | {'--':>9} | infeasible")
    cap = round(cap * 0.6, 1)

print("\nAs accelerator memories shrink, work migrates back to the CPUs")
print("(slower but roomy) before the platform becomes infeasible.")
