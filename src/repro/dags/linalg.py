"""Tiled dense linear-algebra task graphs (paper §6.1.2).

Builds the LU and Cholesky factorisation DAGs of a ``t x t`` tiled matrix,
with the broadcast of a kernel's output to its multiple consumers modelled —
exactly as in the paper — by a *linear pipeline of fictitious null-time
tasks* so that every node forwards its file to at most two successors.

Kernel processing times come from Table 1 (192x192 double-precision tiles on
the *mirage* platform, in ms).  The report gives a single number per kernel;
we ship those as the CPU (blue) times and derive GPU (red) times with
per-kernel acceleration factors (``DEFAULT_GPU_SPEEDUP``, overridable), since
compute-bound kernels (GEMM/SYRK) accelerate far better on a GPU than
panel factorisations (GETRF/POTRF); Table 1's note repeats this
substitution.  CPU->GPU transfer of one tile costs 50 ms, and every file is
one tile (``F = 1``), so memory is measured in tiles (§6.1.2).
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional, Sequence

from ..core.graph import TaskGraph

Task = Hashable

#: Table 1 — average kernel running time on a 192x192 tile (milliseconds).
KERNEL_TIMES_MS: dict[str, float] = {
    "getrf": 450.0,
    "gemm": 1450.0,
    "trsm_l": 990.0,
    "trsm_u": 830.0,
    "potrf": 450.0,
    "syrk": 990.0,
}

#: Per-kernel GPU acceleration over the CPU time (our Table-1 split; see
#: module docstring).  Panel factorisations barely accelerate, BLAS3 updates
#: accelerate strongly.
DEFAULT_GPU_SPEEDUP: dict[str, float] = {
    "getrf": 2.0,
    "potrf": 2.0,
    "gemm": 10.0,
    "trsm_l": 5.0,
    "trsm_u": 5.0,
    "syrk": 8.0,
}

#: Average observed CPU<->GPU transfer time for one tile (ms, §6.1.2).
TILE_COMM_MS: float = 50.0
#: Every file is one tile; memory bounds are expressed in tiles.
TILE_SIZE: float = 1.0


def _kernel_times(kernel: str,
                  times: Mapping[str, float],
                  speedup: Mapping[str, float]) -> tuple[float, float]:
    cpu = times[kernel]
    return cpu, cpu / speedup[kernel]


def _add_kernel(g: TaskGraph, task: Task, kernel: str,
                times: Mapping[str, float], speedup: Mapping[str, float]) -> Task:
    w_blue, w_red = _kernel_times(kernel, times, speedup)
    return g.add_task(task, w_blue=w_blue, w_red=w_red)


def _broadcast(g: TaskGraph, producer: Task, consumers: Sequence[Task],
               *, size: float, comm: float) -> int:
    """Connect ``producer`` to every consumer through a linear pipeline of
    fictitious null-time tasks; returns the number of fictitious tasks.

    With ``q`` consumers the pipeline has ``q - 1`` stages: the producer and
    every stage forward the (one-tile) file to one consumer and to the next
    stage, so no node has to keep more than two output files alive.
    """
    q = len(consumers)
    if q == 0:
        return 0
    if q == 1:
        g.add_dependency(producer, consumers[0], size=size, comm=comm)
        return 1 - 1
    current = producer
    added = 0
    for idx, consumer in enumerate(consumers):
        if idx < q - 1:
            stage: Task = ("bc", producer, idx)
            g.add_task(stage, 0.0, 0.0)
            g.add_dependency(current, stage, size=size, comm=comm)
            g.add_dependency(stage, consumer, size=size, comm=comm)
            current = stage
            added += 1
        else:
            g.add_dependency(current, consumer, size=size, comm=comm)
    return added


# ----------------------------------------------------------------------
# LU factorisation
# ----------------------------------------------------------------------
def lu_dag(
    tiles: int,
    *,
    times: Optional[Mapping[str, float]] = None,
    speedup: Optional[Mapping[str, float]] = None,
    comm_ms: float = TILE_COMM_MS,
    tile_size: float = TILE_SIZE,
) -> TaskGraph:
    """Task graph of the right-looking tiled LU factorisation (no pivoting).

    Step ``k`` factors the diagonal tile with GETRF, eliminates row ``k``
    (TRSM_L) and column ``k`` (TRSM_U), then updates the trailing matrix with
    GEMM; GETRF and TRSM outputs are broadcast through fictitious pipelines.
    Real-kernel count is ``t(t+1)(2t+1)/6`` (~``t^3/3``); with pipelines the
    DAG grows to ~``t^3`` nodes, cubic as in the paper.
    """
    if tiles < 1:
        raise ValueError("tiles must be >= 1")
    times = dict(KERNEL_TIMES_MS) if times is None else dict(times)
    speedup = dict(DEFAULT_GPU_SPEEDUP) if speedup is None else dict(speedup)
    g = TaskGraph(name=f"lu{tiles}x{tiles}")
    t = tiles

    for k in range(t):
        _add_kernel(g, ("getrf", k), "getrf", times, speedup)
        for j in range(k + 1, t):
            _add_kernel(g, ("trsm_l", k, j), "trsm_l", times, speedup)  # row k
            _add_kernel(g, ("trsm_u", j, k), "trsm_u", times, speedup)  # column k
        for i in range(k + 1, t):
            for j in range(k + 1, t):
                _add_kernel(g, ("gemm", k, i, j), "gemm", times, speedup)

    def next_on_tile(k: int, i: int, j: int) -> Task:
        """Task consuming tile ``(i, j)`` at step ``k + 1``."""
        if i == k + 1 and j == k + 1:
            return ("getrf", k + 1)
        if i == k + 1:
            return ("trsm_l", k + 1, j)
        if j == k + 1:
            return ("trsm_u", i, k + 1)
        return ("gemm", k + 1, i, j)

    for k in range(t):
        # GETRF -> all TRSMs of step k (broadcast).
        trsms = [("trsm_l", k, j) for j in range(k + 1, t)]
        trsms += [("trsm_u", i, k) for i in range(k + 1, t)]
        _broadcast(g, ("getrf", k), trsms, size=tile_size, comm=comm_ms)
        # TRSM -> GEMMs (broadcasts along the row / the column).
        for j in range(k + 1, t):
            consumers = [("gemm", k, i, j) for i in range(k + 1, t)]
            _broadcast(g, ("trsm_l", k, j), consumers, size=tile_size, comm=comm_ms)
        for i in range(k + 1, t):
            consumers = [("gemm", k, i, j) for j in range(k + 1, t)]
            _broadcast(g, ("trsm_u", i, k), consumers, size=tile_size, comm=comm_ms)
        # GEMM -> the step-(k+1) task on the same tile (single consumer).
        for i in range(k + 1, t):
            for j in range(k + 1, t):
                g.add_dependency(("gemm", k, i, j), next_on_tile(k, i, j),
                                 size=tile_size, comm=comm_ms)
    return g


def lu_task_counts(tiles: int) -> dict[str, int]:
    """Closed-form node counts of :func:`lu_dag` (kernels + fictitious)."""
    t = tiles
    counts = {
        "getrf": t,
        "trsm_l": t * (t - 1) // 2,
        "trsm_u": t * (t - 1) // 2,
        "gemm": sum((t - k - 1) ** 2 for k in range(t)),
    }
    fict = 0
    for k in range(t):
        j = t - k - 1
        if 2 * j >= 2:
            fict += 2 * j - 1  # getrf broadcast
        if j >= 2:
            fict += 2 * j * (j - 1)  # the 2j TRSM broadcasts, j-1 stages each
    counts["fictitious"] = fict
    counts["total"] = sum(counts.values())
    return counts


# ----------------------------------------------------------------------
# Cholesky factorisation
# ----------------------------------------------------------------------
def cholesky_dag(
    tiles: int,
    *,
    times: Optional[Mapping[str, float]] = None,
    speedup: Optional[Mapping[str, float]] = None,
    comm_ms: float = TILE_COMM_MS,
    tile_size: float = TILE_SIZE,
) -> TaskGraph:
    """Task graph of the tiled Cholesky factorisation (lower-triangular).

    Step ``k``: POTRF on the diagonal tile, TRSM down column ``k``
    (broadcast from POTRF), SYRK updates of the remaining diagonal and GEMM
    updates of the strictly-lower trailing tiles (operands broadcast from
    the TRSMs).  Works on the lower half of the matrix only — hence roughly
    half the tiles of LU, as the paper notes for Figure 15.
    """
    if tiles < 1:
        raise ValueError("tiles must be >= 1")
    times = dict(KERNEL_TIMES_MS) if times is None else dict(times)
    speedup = dict(DEFAULT_GPU_SPEEDUP) if speedup is None else dict(speedup)
    g = TaskGraph(name=f"cholesky{tiles}x{tiles}")
    t = tiles

    for k in range(t):
        _add_kernel(g, ("potrf", k), "potrf", times, speedup)
        for i in range(k + 1, t):
            _add_kernel(g, ("trsm", i, k), "trsm_l", times, speedup)
            _add_kernel(g, ("syrk", k, i), "syrk", times, speedup)
            for j in range(k + 1, i):
                _add_kernel(g, ("gemm", k, i, j), "gemm", times, speedup)

    for k in range(t):
        # POTRF -> column TRSMs.
        consumers = [("trsm", i, k) for i in range(k + 1, t)]
        _broadcast(g, ("potrf", k), consumers, size=tile_size, comm=comm_ms)
        for i in range(k + 1, t):
            # TRSM(i,k) feeds its SYRK, the GEMMs of row i and of column i.
            fan = [("syrk", k, i)]
            fan += [("gemm", k, i, j) for j in range(k + 1, i)]
            fan += [("gemm", k, r, i) for r in range(i + 1, t)]
            _broadcast(g, ("trsm", i, k), fan, size=tile_size, comm=comm_ms)
            # SYRK chain on the diagonal tile (i, i) -> next step or POTRF.
            nxt: Task = ("syrk", k + 1, i) if k + 1 < i else ("potrf", i)
            g.add_dependency(("syrk", k, i), nxt, size=tile_size, comm=comm_ms)
            # GEMM -> next task on the same tile (i, j).
            for j in range(k + 1, i):
                nxt = ("gemm", k + 1, i, j) if k + 1 < j else ("trsm", i, k + 1)
                g.add_dependency(("gemm", k, i, j), nxt, size=tile_size, comm=comm_ms)
    return g


def cholesky_task_counts(tiles: int) -> dict[str, int]:
    """Closed-form node counts of :func:`cholesky_dag`."""
    t = tiles
    counts = {
        "potrf": t,
        "trsm": t * (t - 1) // 2,
        "syrk": t * (t - 1) // 2,
        "gemm": sum((t - k - 1) * (t - k - 2) // 2 for k in range(t)),
    }
    # POTRF broadcasts to j = t-k-1 TRSMs (j-1 stages when j >= 2); each of
    # the j TRSMs broadcasts to exactly j consumers (its SYRK + j-1 GEMMs),
    # adding another j-1 stages apiece.
    fict = 0
    for k in range(t):
        j = t - k - 1
        if j >= 2:
            fict += (j - 1) + j * (j - 1)
    counts["fictitious"] = fict
    counts["total"] = sum(counts.values())
    return counts
