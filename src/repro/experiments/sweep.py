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
``jobs=N`` to shard the grid over N processes.  The serial and parallel
paths run the *same* cell functions and aggregate in the same order, so
they return identical results (``tests/experiments/test_engine.py`` pins
this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.bounds import lower_bound
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.validation import validate_schedule
from ..scheduling.heft import heft
from ..scheduling.minmin import minmin
from ..scheduling.registry import get_scheduler
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
    #: Exact-key lookup index, rebuilt lazily when ``cells`` grows.
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def cell(self, alpha: float, algorithm: str) -> SweepCell:
        if len(self._index) != len(self.cells):
            self._index = {(c.alpha, c.algorithm): c for c in self.cells}
        found = self._index.get((alpha, algorithm))
        if found is not None:
            return found
        # Tolerance fallback for callers that recompute alphas.
        for c in self.cells:
            if c.algorithm == algorithm and math.isclose(c.alpha, alpha):
                return c
        raise KeyError((alpha, algorithm))

    def series(self, algorithm: str) -> list[SweepCell]:
        return sorted((c for c in self.cells if c.algorithm == algorithm),
                      key=lambda c: c.alpha)


def default_alphas(n: int = 10) -> tuple[float, ...]:
    """Evenly spaced relative-memory grid in ``(0, 1]``."""
    import numpy as np

    return tuple(float(a) for a in np.linspace(1.0 / n, 1.0, n))


def _normalized_cell(payload: tuple, cache: dict,
                     cell: tuple) -> list[Optional[float]]:
    """One (graph, alpha) cell: per algorithm, the normalised makespan or
    ``None`` when infeasible at this bound."""
    graphs, platform, algorithms, check, refs = payload
    graph_idx, alpha = cell
    ref = cached_reference(cache, graphs, platform, graph_idx, refs)
    bounded = platform.with_uniform_bound(alpha * ref.ref_memory)
    out: list[Optional[float]] = []
    for name in algorithms:
        try:
            schedule = get_scheduler(name)(ref.graph, bounded)
        except InfeasibleScheduleError:
            out.append(None)
            continue
        if check:
            validate_schedule(ref.graph, bounded, schedule)
        out.append(schedule.makespan / ref.makespan)
    return out


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
    extra_name: str = "optimal",
    jobs: int = 1,
) -> SweepResult:
    """Normalised-memory sweep over a set of graphs (Figures 10 and 12).

    ``jobs`` shards the (graph, alpha) grid over that many worker
    processes (``jobs=1``: in-process; ``jobs<=0``: one per CPU); the
    result is identical for any jobs value.
    ``extra_solver`` optionally adds one more series (the ILP optimum in
    Figure 10): a callable returning a makespan or ``None`` when it cannot
    schedule within the bounds.  It runs in-process (solver callables are
    generally not picklable), after the sharded heuristic grid.
    ``check=True`` re-validates every produced schedule with the independent
    validator (slower; used by integration tests).
    """
    import numpy as np

    alphas = tuple(alphas) if alphas is not None else default_alphas()
    algorithms = tuple(algorithms)
    names = algorithms + ((extra_name,) if extra_solver else ())
    result = SweepResult(algorithms=names, alphas=alphas)

    # With an extra (in-process) solver series the reference runs are
    # needed here anyway — compute them once and ship them to the workers
    # instead of letting every process redo the HEFT baselines.
    refs = (tuple(reference_run(g, platform) for g in graphs)
            if extra_solver is not None else None)

    # Graph-major cell order keeps one graph's cells contiguous, so each
    # chunk — and hence (mostly) one worker process — computes that
    # graph's reference run; alpha-major order would make every process
    # redo nearly every reference.  Aggregation below indexes by cell, so
    # the order does not affect the result.
    cells = [(gi, alpha) for gi in range(len(graphs)) for alpha in alphas]
    payload = (tuple(graphs), platform, algorithms, check, refs)
    rows = map_cells(_normalized_cell, payload, cells, jobs=jobs)
    cell_of = dict(zip(cells, rows))

    extra_scores: dict[tuple[int, float], Optional[float]] = {}
    if extra_solver is not None:
        for alpha in alphas:
            for gi, ref in enumerate(refs):
                bounded = platform.with_uniform_bound(alpha * ref.ref_memory)
                span = extra_solver(ref.graph, bounded)
                extra_scores[(gi, alpha)] = (
                    None if span is None else span / ref.makespan)

    for alpha in alphas:
        scores: dict[str, list[float]] = {name: [] for name in names}
        for gi in range(len(graphs)):
            row = cell_of[(gi, alpha)]
            for name, norm in zip(algorithms, row):
                if norm is not None:
                    scores[name].append(norm)
            if extra_solver is not None:
                norm = extra_scores[(gi, alpha)]
                if norm is not None:
                    scores[extra_name].append(norm)
        for name in names:
            vals = scores[name]
            result.cells.append(SweepCell(
                alpha=alpha,
                algorithm=name,
                n_graphs=len(graphs),
                n_success=len(vals),
                mean_norm_makespan=float(np.mean(vals)) if vals else None,
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
        for c in self.cells:
            if c.algorithm == algorithm and (c.spread == spread
                                             or math.isclose(c.spread, spread)):
                return c
        raise KeyError((spread, algorithm))

    def series(self, algorithm: str) -> list[HeterogeneityCell]:
        return sorted((c for c in self.cells if c.algorithm == algorithm),
                      key=lambda c: c.spread)


def _heterogeneity_cell(payload: tuple, cache: dict,
                        cell: tuple) -> list[Optional[tuple[float, float]]]:
    """One (graph, spread) cell: per algorithm, ``(makespan, baseline
    makespan at spread 0)`` or ``None`` when infeasible."""
    graphs, platform, algorithms, check = payload
    graph_idx, spread = cell
    graph = graphs[graph_idx]
    hetero = spread_speeds(platform, spread)
    out: list[Optional[tuple[float, float]]] = []
    for name in algorithms:
        base_key = ("hetero-base", graph_idx, name)
        base = cache.get(base_key, -1.0)
        if base == -1.0:
            try:
                base = get_scheduler(name)(graph, platform).makespan
            except InfeasibleScheduleError:
                base = None
            cache[base_key] = base
        if not hetero.is_heterogeneous:
            # spread 0: the "hetero" platform equals the baseline one, so
            # rescheduling would redo the exact same run — reuse it.
            out.append(None if base is None else (base, base))
            continue
        try:
            schedule = get_scheduler(name)(graph, hetero)
        except InfeasibleScheduleError:
            out.append(None)
            continue
        if check:
            validate_schedule(graph, hetero, schedule)
        out.append((schedule.makespan, base))
    return out


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
    schedule with the independent (speed-aware) validator.
    """
    import numpy as np

    spreads = (tuple(float(s) for s in spreads) if spreads is not None
               else default_spreads())
    algorithms = tuple(algorithms)
    result = HeterogeneitySweepResult(algorithms=algorithms, spreads=spreads)

    # Graph-major order: one graph's cells stay contiguous, so each chunk
    # mostly reuses its process's cached homogeneous baselines.
    cells = [(gi, spread) for gi in range(len(graphs)) for spread in spreads]
    payload = (tuple(graphs), platform, algorithms, check)
    rows = map_cells(_heterogeneity_cell, payload, cells, jobs=jobs)
    cell_of = dict(zip(cells, rows))

    for spread in spreads:
        for name_i, name in enumerate(algorithms):
            spans: list[float] = []
            ratios: list[float] = []
            for gi in range(len(graphs)):
                entry = cell_of[(gi, spread)][name_i]
                if entry is None:
                    continue
                span, base = entry
                spans.append(span)
                if base is not None and base > 0.0:
                    ratios.append(span / base)
            result.cells.append(HeterogeneityCell(
                spread=spread,
                algorithm=name,
                n_graphs=len(graphs),
                n_success=len(spans),
                mean_makespan=float(np.mean(spans)) if spans else None,
                mean_ratio_to_homogeneous=(float(np.mean(ratios))
                                           if ratios else None),
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
    """One memory bound of an absolute sweep: makespan per algorithm."""
    graph, platform, algorithms, check = payload
    bounded = platform.with_uniform_bound(bound)
    out: list[Optional[float]] = []
    for name in algorithms:
        try:
            schedule = get_scheduler(name)(graph, bounded)
        except InfeasibleScheduleError:
            out.append(None)
            continue
        if check:
            validate_schedule(graph, bounded, schedule)
        out.append(schedule.makespan)
    return out


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
    results for any value."""
    ref_heft = heft(graph, platform)
    ref_minmin = minmin(graph, platform)
    algorithms = tuple(algorithms)
    payload = (graph, platform, algorithms, check)
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
