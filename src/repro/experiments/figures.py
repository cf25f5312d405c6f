"""Per-figure experiment drivers (§6.2).

Each ``figN`` function regenerates the series behind one figure of the
paper's evaluation and returns a :class:`FigureResult` whose ``text`` is the
rendered table.  Benchmarks (``benchmarks/bench_figN_*.py``) and the CLI
(``memsched experiment figN``) are thin wrappers around these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.platform import Platform
from ..dags.datasets import (
    large_rand_set,
    small_rand_set,
    tiny_rand_set,
)
from ..dags.linalg import (
    DEFAULT_GPU_SPEEDUP,
    KERNEL_TIMES_MS,
    cholesky_dag,
    lu_dag,
)
from .config import Scale, get_scale
from .report import (
    render_absolute_sweep,
    render_heterogeneity_sweep,
    render_normalized_sweep,
    render_table,
)
from .sweep import (
    absolute_sweep,
    default_alphas,
    default_spreads,
    heterogeneity_sweep,
    normalized_sweep,
    reference_run,
)

#: Figures 10-13 use one processor per memory (as the paper's toy and
#: SmallRandSet discussion); Figures 14-15 use the *mirage* platform of
#: §6.1.2 (12 CPU cores + 3 GPUs).
RAND_PLATFORM = Platform(n_blue=1, n_red=1)
MIRAGE_PLATFORM = Platform(n_blue=12, n_red=3)


@dataclass
class FigureResult:
    """One regenerated table/figure."""

    figure_id: str
    title: str
    text: str
    data: object
    notes: list[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        out = [f"== {self.figure_id}: {self.title} ==", self.text]
        out += [f"note: {n}" for n in self.notes]
        return "\n".join(out)


def table1(scale: Optional[Scale] = None, *, check: bool = False,
           jobs: int = 1) -> FigureResult:
    """Table 1: kernel running times (+ our blue/red split, see
    :mod:`repro.dags.linalg`).

    ``scale``/``check``/``jobs`` are accepted for driver-signature
    uniformity; the table is constant input data, not a measurement.
    """
    headers = ["kernel", "paper_ms", "w_blue (CPU)", "w_red (GPU)", "gpu_speedup"]
    rows = []
    for kernel, ms in KERNEL_TIMES_MS.items():
        sp = DEFAULT_GPU_SPEEDUP[kernel]
        rows.append([kernel, ms, ms, round(ms / sp, 1), sp])
    text = render_table(headers, rows)
    return FigureResult(
        "table1", "Average kernel performance on a 192x192 tile (ms)", text,
        data=dict(KERNEL_TIMES_MS),
        notes=["paper gives one time per kernel; blue = paper time, "
               "red = blue / per-kernel GPU speedup (see repro.dags.linalg)"])


def fig10(scale: Optional[Scale] = None, *, check: bool = False,
          jobs: int = 1) -> FigureResult:
    """Figure 10: SmallRandSet — normalised makespan + success rate vs alpha.

    Heuristic series on SmallRandSet; the "optimal" series is the exact §4
    ILP, solved by HiGHS in place of the paper's CPLEX, on TinyRandSet.
    The paper's optimal series used SmallRandSet's 30-task DAGs, where
    HiGHS found no incumbent within 60 s on the graphs tried.
    """
    scale = scale or get_scale()
    graphs = small_rand_set(scale.small_n_graphs, scale.small_size)
    alphas = default_alphas(scale.n_alphas)
    heur = normalized_sweep(graphs, RAND_PLATFORM, alphas=alphas, check=check,
                            jobs=jobs)
    text = render_normalized_sweep(
        heur, title=f"SmallRandSet ({len(graphs)} DAGs x {scale.small_size} tasks)")

    tiny = tiny_rand_set(scale.tiny_n_graphs, scale.tiny_size)

    def ilp_solver(graph, bounded_platform) -> Optional[float]:
        from ..ilp import solve_ilp   # scipy, loaded only for this series

        sol = solve_ilp(graph, bounded_platform,
                        node_limit=scale.ilp_node_limit,
                        time_limit=scale.ilp_time_limit)
        return sol.makespan

    opt = normalized_sweep(tiny, RAND_PLATFORM, alphas=alphas, check=check,
                           extra_solver=ilp_solver, jobs=jobs)
    text += "\n\n" + render_normalized_sweep(
        opt, title=f"TinyRandSet with ILP optimum ({len(tiny)} DAGs x "
                   f"{scale.tiny_size} tasks)")
    return FigureResult(
        "fig10", "SmallRandSet: heuristics vs optimal under relative memory",
        text, data={"heuristics": heur, "optimal": opt},
        notes=["HiGHS proves optimality on TinyRandSet; the paper's 30-task "
               "CPLEX series stays out of reach"])


def _absolute_grid(ref_memory: float, n: int = 12) -> list[float]:
    """Absolute memory grid from ~0 up to the HEFT requirement."""
    import numpy as np

    return [float(x) for x in np.linspace(ref_memory / n, ref_memory, n)]


def fig11(scale: Optional[Scale] = None, *, check: bool = False,
          jobs: int = 1) -> FigureResult:
    """Figure 11: makespan vs memory for one SmallRandSet DAG."""
    scale = scale or get_scale()
    graph = small_rand_set(1, scale.small_size)[0]
    ref = reference_run(graph, RAND_PLATFORM)
    grid = _absolute_grid(ref.ref_memory)
    res = absolute_sweep(graph, RAND_PLATFORM, grid, check=check, jobs=jobs)
    text = render_absolute_sweep(res, title=f"DAG {graph.name} "
                                            f"({graph.n_tasks} tasks)")
    return FigureResult("fig11",
                        "Makespan vs memory, single small random DAG",
                        text, data=res)


def fig12(scale: Optional[Scale] = None, *, check: bool = False,
          jobs: int = 1) -> FigureResult:
    """Figure 12: LargeRandSet — normalised makespan + success rate vs alpha."""
    scale = scale or get_scale()
    graphs = large_rand_set(scale.large_n_graphs, scale.large_size)
    alphas = default_alphas(scale.n_alphas)
    res = normalized_sweep(graphs, RAND_PLATFORM, alphas=alphas, check=check,
                           jobs=jobs)
    text = render_normalized_sweep(
        res, title=f"LargeRandSet ({len(graphs)} DAGs x {scale.large_size} tasks)")
    notes = []
    if scale.name != "paper":
        notes.append("paper scale is 100 DAGs x 1000 tasks; "
                     "set REPRO_SCALE=paper to match")
    return FigureResult("fig12", "LargeRandSet under relative memory",
                        text, data=res, notes=notes)


def fig13(scale: Optional[Scale] = None, *, check: bool = False,
          jobs: int = 1) -> FigureResult:
    """Figure 13: makespan vs memory for one LargeRandSet DAG."""
    scale = scale or get_scale()
    graph = large_rand_set(1, scale.large_size)[0]
    ref = reference_run(graph, RAND_PLATFORM)
    grid = _absolute_grid(ref.ref_memory)
    res = absolute_sweep(graph, RAND_PLATFORM, grid, check=check, jobs=jobs)
    text = render_absolute_sweep(res, title=f"DAG {graph.name} "
                                            f"({graph.n_tasks} tasks)")
    return FigureResult("fig13", "Makespan vs memory, single large random DAG",
                        text, data=res)


def fig14(scale: Optional[Scale] = None, *, check: bool = False,
          jobs: int = 1) -> FigureResult:
    """Figure 14: tiled LU factorisation, makespan vs memory (in tiles)."""
    scale = scale or get_scale()
    graph = lu_dag(scale.lu_tiles)
    ref = reference_run(graph, MIRAGE_PLATFORM)
    grid = _absolute_grid(ref.ref_memory)
    res = absolute_sweep(graph, MIRAGE_PLATFORM, grid, check=check, jobs=jobs)
    text = render_absolute_sweep(
        res, title=f"LU {scale.lu_tiles}x{scale.lu_tiles} tiles "
                   f"({graph.n_tasks} tasks), memory in tiles")
    notes = [f"matrix holds {scale.lu_tiles ** 2} tiles"]
    if scale.name != "paper":
        notes.append("paper uses 13x13 tiles; set REPRO_SCALE=paper to match")
    return FigureResult("fig14", "LU factorisation makespan vs memory",
                        text, data=res, notes=notes)


def fig15(scale: Optional[Scale] = None, *, check: bool = False,
          jobs: int = 1) -> FigureResult:
    """Figure 15: tiled Cholesky factorisation, makespan vs memory (tiles)."""
    scale = scale or get_scale()
    graph = cholesky_dag(scale.cholesky_tiles)
    ref = reference_run(graph, MIRAGE_PLATFORM)
    grid = _absolute_grid(ref.ref_memory)
    res = absolute_sweep(graph, MIRAGE_PLATFORM, grid, check=check, jobs=jobs)
    t = scale.cholesky_tiles
    text = render_absolute_sweep(
        res, title=f"Cholesky {t}x{t} tiles ({graph.n_tasks} tasks), "
                   f"memory in tiles")
    notes = [f"lower half of the matrix holds {t * (t + 1) // 2} tiles"]
    if scale.name != "paper":
        notes.append("paper uses 13x13 tiles; set REPRO_SCALE=paper to match")
    return FigureResult("fig15", "Cholesky factorisation makespan vs memory",
                        text, data=res, notes=notes)


#: The heterogeneity axis runs on a multi-processor hybrid platform (the
#: speed spread is invisible on Figures 10-13's one-proc-per-class shape).
HETERO_PLATFORM = Platform(n_blue=4, n_red=2)


def hetero(scale: Optional[Scale] = None, *, check: bool = False,
           jobs: int = 1) -> FigureResult:
    """Heterogeneity axis (beyond the paper): speed-spread sweep.

    Daggen graphs on a 4 CPU + 2 GPU platform whose per-class processor
    speeds are spread over ``[1 - alpha, 1 + alpha]``; ``alpha = 0`` is
    the paper's homogeneous model, reported as the per-heuristic
    normalisation baseline.
    """
    scale = scale or get_scale()
    graphs = small_rand_set(scale.small_n_graphs, scale.small_size)
    spreads = default_spreads(scale.n_alphas)
    res = heterogeneity_sweep(graphs, HETERO_PLATFORM, spreads=spreads,
                              check=check, jobs=jobs)
    text = render_heterogeneity_sweep(
        res, title=f"SmallRandSet ({len(graphs)} DAGs x {scale.small_size} "
                   f"tasks) on {HETERO_PLATFORM.n_blue}+"
                   f"{HETERO_PLATFORM.n_red} procs, unbounded memory")
    return FigureResult(
        "hetero", "Speed-spread sweep on a heterogeneous hybrid platform",
        text, data=res,
        notes=["not a paper figure: per-processor speeds generalise the "
               "platform model (spread 0 = the paper's setting)"])


#: All drivers by experiment id (CLI dispatch).
EXPERIMENTS = {
    "table1": table1,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "hetero": hetero,
}
