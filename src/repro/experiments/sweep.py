"""Memory-sweep machinery behind Figures 10–15.

Two sweep styles, mirroring the paper:

* :func:`normalized_sweep` (Figures 10, 12) — for each graph, run
  memory-oblivious HEFT to get its memory peaks; then for each relative
  memory ``alpha`` set both bounds to ``alpha * max(HEFT peaks)`` and record,
  per heuristic, the success rate and the average makespan normalised by the
  HEFT makespan (averaged over successfully scheduled graphs only, as in the
  paper).
* :func:`absolute_sweep` (Figures 11, 13, 14, 15) — one graph, an absolute
  grid of memory bounds, makespan per algorithm per bound; the
  memory-oblivious baselines appear from the bound where their own peak
  fits, and the combinatorial lower bound gives the flat reference line.

A third axis goes beyond the paper:

* :func:`heterogeneity_sweep` — for each *speed spread* ``alpha``, make the
  platform heterogeneous (processor speeds evenly spaced over
  ``[1 - alpha, 1 + alpha]`` inside each class, :func:`spread_speeds`) and
  record, per heuristic, the mean makespan and its ratio to the same
  heuristic's homogeneous (``alpha = 0``) run.  ``alpha = 0`` *is* the
  paper's model, so the axis continuously deforms the reproduced setting
  into mixed-SKU platforms.

All sweeps decompose into independent cells — (graph, alpha) for the
normalised and heterogeneity styles, (bound,) for the absolute one —
executed through :func:`repro.experiments.engine.map_cells`: pass
``jobs=N`` to shard the grid over N processes.  Every cell schedules
through one runner, :func:`_makespans` (run each heuristic, ``None`` where
it finds the bound infeasible, validate under ``check=True``), and both
(graph, x) styles build, map and regroup their grid through one
:func:`_grid`, which also serves the comm-policy ablation.  The serial and
parallel paths run the *same* cell functions and aggregate in the same
order, so they return identical results
(``tests/experiments/test_engine.py`` pins this).

Memory-oblivious heuristics (``MEMORY_OBLIVIOUS``) ignore the bounds, so
a sweep refuses them on any bounded platform before a cell runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.bounds import lower_bound
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.validation import validate_schedule
from ..scheduling.heft import heft
from ..scheduling.minmin import minmin
from ..scheduling.registry import MEMORY_OBLIVIOUS, get_scheduler
from ..scheduling.state import InfeasibleScheduleError
from .engine import cached_reference, map_cells


@dataclass(frozen=True)
class ReferenceRun:
    """Memory-oblivious HEFT reference for one graph (§6.2.1)."""

    graph: TaskGraph
    makespan: float
    #: HEFT's memory peak per class (any k, not just the dual pair).
    peaks: tuple[float, ...]

    @property
    def peak_blue(self) -> float:
        return self.peaks[0]

    @property
    def peak_red(self) -> float:
        return self.peaks[1] if len(self.peaks) > 1 else 0.0

    @property
    def ref_memory(self) -> float:
        """``max_c M^HEFT_c`` — the alpha = 1 normalisation, over *all*
        memory classes."""
        return max(self.peaks)


def reference_run(graph: TaskGraph, platform: Platform) -> ReferenceRun:
    """Run memory-oblivious HEFT and harvest makespan + memory peaks."""
    schedule = heft(graph, platform)
    return ReferenceRun(
        graph=graph,
        makespan=schedule.makespan,
        peaks=tuple(schedule.meta["peaks"]),
    )


@dataclass
class SweepCell:
    """Aggregated result of one (alpha, algorithm) grid point."""

    alpha: float
    algorithm: str
    n_graphs: int
    n_success: int
    mean_norm_makespan: Optional[float]  # None when nothing scheduled

    @property
    def success_rate(self) -> float:
        return self.n_success / self.n_graphs if self.n_graphs else 0.0


@dataclass
class SweepResult:
    """Full grid of a normalised sweep (rows of Figure 10 / 12)."""

    algorithms: tuple[str, ...]
    alphas: tuple[float, ...]
    cells: list[SweepCell] = field(default_factory=list)

    def cell(self, alpha: float, algorithm: str) -> SweepCell:
        return _lookup(self.cells, "alpha", alpha, algorithm)

    def series(self, algorithm: str) -> list[SweepCell]:
        return sorted((c for c in self.cells if c.algorithm == algorithm),
                      key=lambda c: c.alpha)


def _lookup(cells: list, axis: str, x: float, algorithm: str):
    """The ``algorithm`` cell at grid point ``x`` (read from each cell's
    ``axis`` field): an exact match, else the first ``math.isclose`` one
    for callers that recompute the grid."""
    mine = [c for c in cells if c.algorithm == algorithm]
    for same in (operator.eq, math.isclose):
        for c in mine:
            if same(getattr(c, axis), x):
                return c
    raise KeyError((x, algorithm))


def default_alphas(n: int = 10) -> tuple[float, ...]:
    """Evenly spaced relative-memory grid in ``(0, 1]``."""
    import numpy as np

    return tuple(float(a) for a in np.linspace(1.0 / n, 1.0, n))


def _runs(algorithms: tuple[str, ...], bounded: bool) -> tuple:
    """The registry functions of ``algorithms``.  A memory-oblivious one
    would ignore the bound and pass its overflowing schedule off as
    feasible, so a bounded sweep refuses them before any cell runs."""
    if bounded:
        oblivious = [a for a in algorithms if a.lower() in MEMORY_OBLIVIOUS]
        if oblivious:
            raise ValueError(
                f"memory-oblivious algorithms ignore the memory bound: "
                f"{', '.join(oblivious)}; sweep them on an unbounded platform")
    return tuple(get_scheduler(name) for name in algorithms)


def _makespans(graph: TaskGraph, platform: Platform, runs: Sequence[Callable],
               check: bool) -> list[Optional[float]]:
    """The one place a sweep schedules: per run (a picklable
    ``run(graph, platform) -> Schedule``), its makespan, or ``None`` when
    it finds ``platform``'s bounds infeasible.  ``check=True`` validates
    every schedule it produces."""
    out: list[Optional[float]] = []
    for run in runs:
        try:
            schedule = run(graph, platform)
        except InfeasibleScheduleError:
            out.append(None)
            continue
        if check:
            validate_schedule(graph, platform, schedule)
        out.append(schedule.makespan)
    return out


def _grid(worker: Callable, payload: tuple, xs: Sequence[float],
          jobs: int) -> dict:
    """Map ``worker`` over every (graph, x) cell and regroup the rows as
    ``{x: [per run, its non-None results in graph order]}``.

    ``payload`` starts ``(graphs, platform, runs, ...)`` and each row holds
    one entry per run.  Graph-major cell order keeps one graph's cells
    contiguous, so each chunk — and hence (mostly) one worker process —
    computes that graph's per-process work (reference run, homogeneous
    baselines) once; x-major order would make every process redo nearly
    all of it.  Regrouping indexes by cell, so the order does not affect
    the result."""
    n_graphs, n_runs = len(payload[0]), len(payload[2])
    cells = [(gi, x) for gi in range(n_graphs) for x in xs]
    rows = dict(zip(cells, map_cells(worker, payload, cells, jobs=jobs)))
    return {x: [[v for gi in range(n_graphs)
                 if (v := rows[gi, x][r]) is not None]
                for r in range(n_runs)]
            for x in xs}


def _mean(values: list[float]) -> Optional[float]:
    import numpy as np

    return float(np.mean(values)) if values else None


def _normalized_cell(payload: tuple, cache: dict,
                     cell: tuple) -> list[Optional[float]]:
    """One (graph, alpha) cell: per run, the makespan normalised by HEFT's,
    or ``None`` when infeasible at this bound."""
    graphs, platform, runs, check, refs = payload
    graph_idx, alpha = cell
    ref = cached_reference(cache, graphs, platform, graph_idx, refs)
    bounded = platform.with_uniform_bound(alpha * ref.ref_memory)
    return [None if span is None else span / ref.makespan
            for span in _makespans(ref.graph, bounded, runs, check)]


def normalized_sweep(
    graphs: Sequence[TaskGraph],
    platform: Platform,
    algorithms: Sequence[str] = ("memheft", "memminmin"),
    alphas: Optional[Sequence[float]] = None,
    *,
    check: bool = False,
    extra_solver: Optional[
        Callable[[TaskGraph, Platform], Optional[float]]
    ] = None,
    jobs: int = 1,
) -> SweepResult:
    """Normalised-memory sweep over a set of graphs (Figures 10 and 12).

    ``jobs`` shards the (graph, alpha) grid over that many worker
    processes (``jobs=1``: in-process; ``jobs<=0``: one per CPU); the
    result is identical for any jobs value.
    ``extra_solver`` optionally adds one more series, ``"optimal"`` (the
    ILP optimum in Figure 10): a callable returning a makespan or ``None``
    when it cannot schedule within the bounds.  It runs in-process (solver
    callables are generally not picklable), after the sharded heuristic
    grid.  ``check=True`` re-validates every produced schedule with the
    independent validator (slower; used by integration tests).
    Memory-oblivious ``algorithms`` raise ``ValueError``.
    """
    alphas = tuple(alphas) if alphas is not None else default_alphas()
    algorithms = tuple(algorithms)
    runs = _runs(algorithms, bounded=True)
    names = algorithms + (("optimal",) if extra_solver else ())

    # With an extra (in-process) solver series the reference runs are
    # needed here anyway — compute them once and ship them to the workers
    # instead of letting every process redo the HEFT baselines.
    refs = (tuple(reference_run(g, platform) for g in graphs)
            if extra_solver is not None else None)
    grid = _grid(_normalized_cell, (tuple(graphs), platform, runs, check, refs),
                 alphas, jobs)
    if extra_solver is not None:
        for alpha, per_run in grid.items():
            optimal = []
            for ref in refs:
                span = extra_solver(ref.graph, platform.with_uniform_bound(
                    alpha * ref.ref_memory))
                if span is not None:
                    optimal.append(span / ref.makespan)
            per_run.append(optimal)

    result = SweepResult(algorithms=names, alphas=alphas)
    for alpha in alphas:
        for name, norms in zip(names, grid[alpha]):
            result.cells.append(SweepCell(
                alpha=alpha,
                algorithm=name,
                n_graphs=len(graphs),
                n_success=len(norms),
                mean_norm_makespan=_mean(norms),
            ))
    return result


# ----------------------------------------------------------------------
# heterogeneity (speed spread) sweeps
# ----------------------------------------------------------------------
def spread_speeds(platform: Platform, spread: float) -> Platform:
    """Heterogeneous copy of ``platform`` with speed spread ``spread``.

    Inside each memory class the processor speeds are evenly spaced over
    ``[1 - spread, 1 + spread]``, fastest first (the class's mean speed
    stays 1.0, so total processing capacity is preserved and results stay
    comparable across spreads).  Single-processor classes and
    ``spread = 0`` stay at speed 1.0 — the returned platform is then
    homogeneous and serializes/hashes exactly like the input.
    """
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"speed spread must be in [0, 1), got {spread}")
    speeds: list[float] = []
    for n in platform.proc_counts:
        for j in range(n):
            if n == 1 or spread == 0.0:
                speeds.append(1.0)
            else:
                speeds.append(1.0 + spread * (1.0 - 2.0 * j / (n - 1)))
    return platform.with_speeds(speeds)


def default_spreads(n: int = 5) -> tuple[float, ...]:
    """Evenly spaced speed-spread grid ``[0, ..., 0.8]`` (0 = the paper's
    homogeneous model)."""
    import numpy as np

    return tuple(float(a) for a in np.linspace(0.0, 0.8, n))


@dataclass
class HeterogeneityCell:
    """Aggregated result of one (spread, algorithm) grid point."""

    spread: float
    algorithm: str
    n_graphs: int
    n_success: int
    mean_makespan: Optional[float]      # None when nothing scheduled
    #: Mean of makespan(spread) / makespan(0) over graphs where both runs
    #: succeeded — the cost (or gain) of heterogeneity for this heuristic.
    mean_ratio_to_homogeneous: Optional[float]

    @property
    def success_rate(self) -> float:
        return self.n_success / self.n_graphs if self.n_graphs else 0.0


@dataclass
class HeterogeneitySweepResult:
    """Full grid of a heterogeneity sweep."""

    algorithms: tuple[str, ...]
    spreads: tuple[float, ...]
    cells: list[HeterogeneityCell] = field(default_factory=list)

    def cell(self, spread: float, algorithm: str) -> HeterogeneityCell:
        return _lookup(self.cells, "spread", spread, algorithm)

    def series(self, algorithm: str) -> list[HeterogeneityCell]:
        return sorted((c for c in self.cells if c.algorithm == algorithm),
                      key=lambda c: c.spread)


def _heterogeneity_cell(payload: tuple, cache: dict,
                        cell: tuple) -> list[Optional[tuple[float, float]]]:
    """One (graph, spread) cell: per run, ``(makespan, baseline makespan
    at spread 0)`` or ``None`` when infeasible.  The baselines run once
    per graph per process."""
    graphs, platform, runs, check = payload
    graph_idx, spread = cell
    graph = graphs[graph_idx]
    base = cache.get(("hetero-base", graph_idx))
    if base is None:
        base = cache[("hetero-base", graph_idx)] = _makespans(
            graph, platform, runs, check)
    hetero = spread_speeds(platform, spread)
    # spread 0: the "hetero" platform equals the baseline one, so
    # rescheduling would redo the exact same runs — reuse them.
    spans = (_makespans(graph, hetero, runs, check)
             if hetero.is_heterogeneous else base)
    return [None if span is None else (span, b)
            for span, b in zip(spans, base)]


def heterogeneity_sweep(
    graphs: Sequence[TaskGraph],
    platform: Platform,
    algorithms: Sequence[str] = ("memheft", "memminmin"),
    spreads: Optional[Sequence[float]] = None,
    *,
    check: bool = False,
    jobs: int = 1,
) -> HeterogeneitySweepResult:
    """Speed-spread sweep over a set of graphs.

    For every spread ``alpha`` the platform's processor speeds are spread
    over ``[1 - alpha, 1 + alpha]`` per class (:func:`spread_speeds`;
    capacities untouched) and each algorithm is run on every graph.
    ``jobs`` shards the (graph, spread) grid over worker processes;
    identical results for any value.  ``check=True`` re-validates every
    schedule, the homogeneous baselines included, with the independent
    (speed-aware) validator.  Memory-oblivious ``algorithms`` raise
    ``ValueError`` when ``platform`` has a finite capacity.
    """
    spreads = (tuple(float(s) for s in spreads) if spreads is not None
               else default_spreads())
    algorithms = tuple(algorithms)
    runs = _runs(algorithms, bounded=platform.is_memory_bounded)
    grid = _grid(_heterogeneity_cell, (tuple(graphs), platform, runs, check),
                 spreads, jobs)
    result = HeterogeneitySweepResult(algorithms=algorithms, spreads=spreads)
    for spread in spreads:
        for name, entries in zip(algorithms, grid[spread]):
            spans = [span for span, _ in entries]
            result.cells.append(HeterogeneityCell(
                spread=spread,
                algorithm=name,
                n_graphs=len(graphs),
                n_success=len(spans),
                mean_makespan=_mean(spans),
                mean_ratio_to_homogeneous=_mean(
                    [span / base for span, base in entries
                     if base is not None and base > 0.0]),
            ))
    return result


@dataclass
class AbsolutePoint:
    """One (memory bound, algorithm) point of an absolute sweep."""

    memory: float
    algorithm: str
    makespan: Optional[float]  # None => infeasible at this bound


@dataclass
class AbsoluteSweepResult:
    """Rows of Figures 11/13/14/15 for a single graph."""

    graph_name: str
    memories: tuple[float, ...]
    points: list[AbsolutePoint]
    heft_makespan: float
    heft_memory: float
    minmin_makespan: float
    minmin_memory: float
    lower_bound: float

    def series(self, algorithm: str) -> list[AbsolutePoint]:
        return sorted((p for p in self.points if p.algorithm == algorithm),
                      key=lambda p: p.memory)

    def min_feasible_memory(self, algorithm: str) -> Optional[float]:
        """Smallest swept bound where ``algorithm`` produced a schedule."""
        feasible = [p.memory for p in self.series(algorithm) if p.makespan is not None]
        return min(feasible) if feasible else None


def _absolute_cell(payload: tuple, cache: dict,
                   bound: float) -> list[Optional[float]]:
    """One memory bound of an absolute sweep: makespan per run."""
    graph, platform, runs, check = payload
    return _makespans(graph, platform.with_uniform_bound(bound), runs, check)


def absolute_sweep(
    graph: TaskGraph,
    platform: Platform,
    memories: Sequence[float],
    algorithms: Sequence[str] = ("memheft", "memminmin"),
    *,
    check: bool = False,
    jobs: int = 1,
) -> AbsoluteSweepResult:
    """Makespan-vs-memory for one graph (Figures 11, 13, 14, 15).

    ``jobs`` shards the bound grid over worker processes; identical
    results for any value.  Memory-oblivious ``algorithms`` raise
    ``ValueError``: HEFT and MinMin enter as the result's unbounded
    baselines instead."""
    algorithms = tuple(algorithms)
    payload = (graph, platform, _runs(algorithms, bounded=True), check)
    ref_heft = heft(graph, platform)
    ref_minmin = minmin(graph, platform)
    rows = map_cells(_absolute_cell, payload, list(memories), jobs=jobs)
    points = [
        AbsolutePoint(bound, name, span)
        for bound, row in zip(memories, rows)
        for name, span in zip(algorithms, row)
    ]
    return AbsoluteSweepResult(
        graph_name=graph.name,
        memories=tuple(memories),
        points=points,
        heft_makespan=ref_heft.makespan,
        heft_memory=max(ref_heft.meta["peaks"]),
        minmin_makespan=ref_minmin.makespan,
        minmin_memory=max(ref_minmin.meta["peaks"]),
        lower_bound=lower_bound(graph, platform),
    )
