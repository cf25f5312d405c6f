"""Makespan lower bounds (the "Lower bound" series of Figure 11).

Three bounds, all valid for *any* memory capacities (memory constraints can
only increase the optimal makespan, so memory-oblivious bounds remain valid):

* :func:`critical_path_lower_bound` — longest path where each task counts
  for its fastest processing time and communications count for zero (both
  endpoints may share a memory).
* :func:`work_lower_bound` — total fastest work spread over all processors.
* :func:`split_work_lower_bound` — the tighter load-balance bound from the
  fractional assignment LP: choose the fraction of each task mapped to
  each class to minimise the largest ``class load / class capacity``.

:func:`lower_bound` is the max of the three.

All three are speed-aware on heterogeneous platforms: the fastest
processing time of a task becomes ``min_c W^(c) / max_speed(c)`` (its best
case is the fastest processor of the best class) and a class's processing
capacity becomes the *sum of its processor speeds* rather than its
processor count.  On homogeneous (all speed 1.0) platforms both reduce to
the historical expressions exactly.

The LP bound is the one numpy/scipy consumer, and both are optional:
they are imported on the first LP call, not with this module, so the
engine, the CLI and the service load neither until a bound needs it.
"""

from __future__ import annotations

import functools
from typing import Optional

from .graph import TaskGraph
from .platform import Platform


@functools.cache
def _lp_solver():
    """``(numpy, scipy.optimize.linprog, scipy.sparse)``, imported on the
    first call; ``None`` when either package is missing (the no-numpy CI
    leg, ``tests/test_no_numpy.py``)."""
    try:
        import numpy
        from scipy import sparse
        from scipy.optimize import linprog
    except ModuleNotFoundError:
        return None
    return numpy, linprog, sparse


def _best_case_duration(graph: TaskGraph, platform: Platform, task) -> float:
    """Fastest possible execution time of one task on ``platform``:
    the fastest processor of its best class."""
    fastest = platform.max_class_speeds
    return min(graph.w(task, c) / fastest[c]
               for c in platform.classes() if platform.proc_counts[c])


def critical_path_lower_bound(graph: TaskGraph,
                              platform: Optional[Platform] = None) -> float:
    """Longest path with per-task best-case durations and zero comms.

    Without a platform (or on a homogeneous one) the per-task weight is
    ``min_c W^(c)`` exactly as before; a heterogeneous platform scales
    each class by its fastest processor speed."""
    if platform is None or not platform.is_heterogeneous:
        return graph.longest_path_length(weight="min")
    best: dict = {}
    for t in graph.topological_order():
        incoming = max((best[p] for p in graph.parents(t)), default=0.0)
        best[t] = incoming + _best_case_duration(graph, platform, t)
    return max(best.values(), default=0.0)


def _class_capacity(platform: Platform, cls: int) -> float:
    """Processing capacity of one class: the sum of its processor speeds
    (reduces to the processor count at speed 1.0)."""
    return sum(platform.class_speeds(cls))


def work_lower_bound(graph: TaskGraph, platform: Platform) -> float:
    """Total fastest work divided by the total processing capacity: task
    i on class c consumes ``W^(c) >= min_c W^(c)`` capacity units, and the
    platform provides ``sum(speeds)`` of them per unit of time (the
    processor count on homogeneous platforms, exactly)."""
    return graph.total_work(None) / sum(platform.speeds)


def split_work_lower_bound(graph: TaskGraph, platform: Platform) -> float:
    """Fractional-assignment load-balance bound (the allocation LP of
    arXiv:1711.06433 over the classes that have processors).

    Task ``i`` puts a share ``x_{i,c}`` of its work on each usable class
    ``c`` but the last, and the rest, ``1 - sum_c x_{i,c}``, on the last.
    Minimise ``T`` s.t. every class's load ``sum_i share_{i,c} W^(c)_i``
    is at most ``S_c T``, where ``S_c`` is the class's processing capacity
    (the sum of its processor speeds: its processor count on homogeneous
    platforms), ``0 <= x_{i,c} <= 1`` and, from three usable classes on,
    ``sum_c x_{i,c} <= 1``.  With one usable class the bound is its total
    work over its capacity.
    """
    solver = _lp_solver()
    if solver is None:
        raise ImportError(
            "split_work_lower_bound needs numpy and scipy (the LP bound); "
            "install them or use critical_path_lower_bound / "
            "work_lower_bound / lower_bound, which degrade gracefully")
    tasks = list(graph.tasks())
    n = len(tasks)
    if n == 0:
        return 0.0
    np, linprog, sparse = solver
    usable = [c for c in platform.classes() if platform.proc_counts[c]]
    k = len(usable)
    caps = [_class_capacity(platform, c) for c in usable]
    work = np.array([[graph.w(t, c) for t in tasks] for c in usable])
    if k == 1:
        return float(work[0].sum()) / caps[0]

    # Variables: x_{i,j} at j*n + i for j < k-1 (class-major), then T.
    nx = (k - 1) * n
    cols = np.arange(nx)
    # Row j < k-1: class c_j's load; row k-1: class c_k's load, which is
    # sum_i W^(c_k)_i minus the shares moved to the other classes.
    rows = np.concatenate([cols // n, np.full(nx, k - 1), np.arange(k)])
    a_cols = np.concatenate([cols, cols, np.full(k, nx)])
    vals = np.concatenate([work[:-1].ravel(), -np.tile(work[-1], k - 1),
                           -np.array(caps)])
    b_ub = np.zeros(k)
    b_ub[-1] = -work[-1].sum()
    if k > 2:
        # One task's shares off c_k sum to at most 1.
        rows = np.concatenate([rows, k + cols % n])
        a_cols = np.concatenate([a_cols, cols])
        vals = np.concatenate([vals, np.ones(nx)])
        b_ub = np.concatenate([b_ub, np.ones(n)])
    a_ub = sparse.csr_array((vals, (rows, a_cols)),
                            shape=(len(b_ub), nx + 1))
    c = np.zeros(nx + 1)
    c[-1] = 1.0
    bounds = [(0.0, 1.0)] * nx + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - LP above is always feasible
        return 0.0
    return float(res.fun)


def lower_bound(graph: TaskGraph, platform: Platform) -> float:
    """Best available makespan lower bound (max of all bounds).

    Without numpy/scipy the LP split-work term is skipped — the result is
    still a valid (just possibly looser) lower bound."""
    best = max(critical_path_lower_bound(graph, platform),
               work_lower_bound(graph, platform))
    if _lp_solver() is not None:
        best = max(best, split_work_lower_bound(graph, platform))
    return best


def memory_lower_bound(graph: TaskGraph) -> float:
    """Smallest uniform memory bound under which *any* schedule can exist.

    Every task must run on some memory that simultaneously holds all its
    input and output files (§3.2), so no schedule exists when both
    capacities are below ``max_i MemReq(i)``.  This is the structural
    infeasibility floor visible in Figures 10-15: below it even the exact
    ILP reports infeasible.
    """
    return max((graph.mem_req(t) for t in graph.tasks()), default=0.0)


def schedulable_memory(graph: TaskGraph, platform: Platform) -> bool:
    """Necessary (not sufficient) memory check: every task fits somewhere."""
    cap = max(platform.capacities)
    return all(graph.mem_req(t) <= cap for t in graph.tasks())
