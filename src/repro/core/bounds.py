"""Makespan lower bounds (the "Lower bound" series of Figure 11).

Three bounds, all valid for *any* memory capacities (memory constraints can
only increase the optimal makespan, so memory-oblivious bounds remain valid):

* :func:`critical_path_lower_bound` — longest path where each task counts
  for its fastest processing time and communications count for zero (both
  endpoints may share a memory).
* :func:`work_lower_bound` — total fastest work spread over all processors.
* :func:`split_work_lower_bound` — the tighter load-balance bound from the
  fractional assignment LP: choose the fraction of each task mapped to blue
  to minimise ``max(blue load / P1, red load / P2)``.

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
import math
from typing import Optional

from .graph import TaskGraph
from .platform import Platform


@functools.cache
def _lp_solver():
    """``(numpy, scipy.optimize.linprog)``, imported on the first call;
    ``None`` when either is missing (the no-numpy CI leg,
    ``tests/test_no_numpy.py``)."""
    try:
        import numpy
        from scipy.optimize import linprog
    except ModuleNotFoundError:
        return None
    return numpy, linprog


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
    """Total fastest work divided by the total processing capacity
    (``sum of speeds``; the processor count on homogeneous platforms)."""
    if platform.n_procs == 0:
        return math.inf
    if not platform.is_heterogeneous:
        return graph.total_work(None) / platform.n_procs
    # Task i on class c occupies its processor for W^(c)/s_p time, i.e.
    # consumes W^(c) >= min_c W^(c) capacity units; the platform provides
    # sum(speeds) capacity units per unit of time.
    return graph.total_work(None) / sum(platform.speeds)


def split_work_lower_bound(graph: TaskGraph, platform: Platform) -> float:
    """Fractional-assignment load-balance bound.

    Dual platform LP: minimise ``T`` s.t. ``sum_i x_i W1_i <= S1 T``,
    ``sum_i (1 - x_i) W2_i <= S2 T``, ``0 <= x_i <= 1``, where ``S_c`` is
    the class's processing capacity — the sum of its processor speeds,
    which is the processor count on homogeneous platforms.
    Degenerates gracefully when one resource class is empty, and
    generalises to k classes with per-class fractions ``x_{i,c}``.
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
    np, linprog = solver
    if platform.n_classes != 2:
        return _split_work_k_classes(graph, platform, tasks)
    w1 = np.array([graph.w_blue(t) for t in tasks])
    w2 = np.array([graph.w_red(t) for t in tasks])
    s1 = _class_capacity(platform, 0)
    s2 = _class_capacity(platform, 1)
    if platform.n_blue == 0:
        return float(w2.sum()) / max(s2, 1)
    if platform.n_red == 0:
        return float(w1.sum()) / max(s1, 1)

    # Variables: x_0..x_{n-1}, T.  Minimise T.
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2, n + 1))
    a_ub[0, :n] = w1
    a_ub[0, -1] = -s1
    a_ub[1, :n] = -w2
    a_ub[1, -1] = -s2
    b_ub = np.array([0.0, -w2.sum()])
    bounds = [(0.0, 1.0)] * n + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - LP above is always feasible
        return 0.0
    return float(res.fun)


def _split_work_k_classes(graph: TaskGraph, platform: Platform,
                          tasks: list) -> float:
    """k-class fractional assignment: minimise ``T`` s.t. for every class
    ``c`` with processors, ``sum_i x_{i,c} W^(c)_i <= S_c T`` (``S_c`` the
    class's speed sum); fractions of each task over the *usable* classes
    sum to 1."""
    usable = [c for c in platform.classes() if platform.proc_counts[c] > 0]
    n = len(tasks)
    k = len(usable)
    if k == 1:
        c0 = usable[0]
        return sum(graph.w(t, c0) for t in tasks) / _class_capacity(platform, c0)

    np, linprog = _lp_solver()
    # Variables: x_{i,c} for usable classes (n*k), then T.  Minimise T.
    nvar = n * k + 1
    c_obj = np.zeros(nvar)
    c_obj[-1] = 1.0
    a_ub = np.zeros((k, nvar))
    for col, cls in enumerate(usable):
        for i, t in enumerate(tasks):
            a_ub[col, i * k + col] = graph.w(t, cls)
        a_ub[col, -1] = -_class_capacity(platform, cls)
    b_ub = np.zeros(k)
    a_eq = np.zeros((n, nvar))
    for i in range(n):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    b_eq = np.ones(n)
    bounds = [(0.0, 1.0)] * (n * k) + [(0.0, None)]
    res = linprog(c_obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
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
