"""Extension — the §7 generalisation: three memory classes.

Sweeps accelerator capacities on a CPU + 2-accelerator platform through
the core k-memory API.
"""

import pytest

from repro.core.graph import TaskGraph
from repro.core.platform import Platform
from repro.core.validation import validate_schedule
from repro.dags.datasets import small_rand_set
from repro.experiments.report import render_table
from repro.scheduling.memheft import memheft
from repro.scheduling.state import InfeasibleScheduleError


def _tri_graph(scale):
    """SmallRandSet graph lifted to 3 classes (class 2 fastest, class 0
    slowest) with deterministic per-class scaling."""
    dual = small_rand_set(1, scale.small_size)[0]
    g = TaskGraph(dual.name + "+tri", n_classes=3)
    for t in dual.topological_order():
        base = dual.w_blue(t)
        g.add_task(t, times=(base, base / 2, base / 5))
    for u, v in dual.edges():
        g.add_dependency(u, v, size=dual.size(u, v), comm=dual.comm(u, v))
    return g


@pytest.mark.figure
def test_tri_memory_capacity_sweep(show, scale, benchmark):
    g = _tri_graph(scale)
    plat = Platform([2, 1, 1])
    base = memheft(g, plat)
    ref = max(base.meta["peaks"][1:]) or 1.0

    def sweep():
        rows = []
        for alpha in (1.0, 0.75, 0.5, 0.25):
            bounded = Platform([2, 1, 1],
                               [float("inf"), alpha * ref, alpha * ref])
            try:
                s = memheft(g, bounded)
                validate_schedule(g, bounded, s)
                counts = [0, 0, 0]
                for p in s.placements():
                    counts[p.cls] += 1
                rows.append([alpha, round(s.makespan, 1)] + counts)
            except InfeasibleScheduleError:
                rows.append([alpha, None, None, None, None])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["accel alpha", "makespan", "cpu tasks", "accelA", "accelB"], rows,
        title="Three-memory capacity sweep (CPU memory unbounded)"))
    # Work migrates to CPUs as accelerator memories shrink.
    feasible = [r for r in rows if r[1] is not None]
    assert feasible
    assert feasible[-1][2] >= feasible[0][2]

