"""Experiment engine: cell grids mapped serially or over a local
process pool.

The paper's evaluation (Figures 10–15) is a grid of independent cells —
one (graph, memory-bound) pair per cell, every algorithm run inside it —
and the sweeps in :mod:`repro.experiments.sweep` decompose exactly along
those lines.  This module provides the machinery shared by every driver:

* :func:`map_cells` — order-preserving map of a pure worker function over
  cell descriptors, either in-process (``jobs=1``) or fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with chunked work units.
  The *same* worker code runs in both modes, so serial and parallel sweeps
  produce identical results by construction; the heavyweight payload
  (graphs, platform) is shipped to each worker process once via the pool
  initializer, not per cell, and every worker keeps a process-local
  ``cache`` dict that persists across its cells (used for shared
  reference-run caching: the memory-oblivious HEFT baseline of a graph is
  computed at most once per process instead of once per cell).
* :func:`cell_seed` — deterministic per-cell seed derivation, stable
  across processes, Python versions and ``PYTHONHASHSEED`` (hashlib, not
  ``hash``), so randomized cells stay reproducible under any sharding.
* :func:`feasibility_frontier` / :func:`frontier_sweep` — binary search
  for the smallest feasible uniform memory bound per (graph, algorithm).
  The heuristics are *not provably monotone* in the bound (a looser bound
  can reshuffle placements into an infeasible corner), so the search is
  guarded by an optional verification mode that samples bounds below the
  reported frontier and flags any feasible point it finds.

Workers are plain top-level functions and payloads are plain picklable
values, so the engine works under both the ``fork`` and ``spawn`` start
methods.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .. import obs
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..scheduling.registry import get_scheduler
from ..scheduling.state import InfeasibleScheduleError

#: Per-process worker context: (worker function, payload, cache dict).
_WORKER: dict = {}


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 → serial, 0 or negative →
    one worker per available CPU."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def cell_seed(*parts: object) -> int:
    """Deterministic 63-bit seed derived from the cell's identity.

    Stable across processes and runs (unlike ``hash``), so a cell draws
    the same randomness whether it runs serially, in any worker, or in a
    re-sharded sweep: ``cell_seed("tiebreak", graph.name, k)``.
    """
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _init_worker(worker: Callable, payload: object) -> None:
    _WORKER["worker"] = worker
    _WORKER["payload"] = payload
    _WORKER["cache"] = {}


def _call_cell(cell: object) -> object:
    return _WORKER["worker"](_WORKER["payload"], _WORKER["cache"], cell)


def cached_reference(cache: dict, graphs: Sequence[TaskGraph],
                     platform: Platform, graph_idx: int,
                     refs: Optional[tuple] = None):
    """Reference run of ``graphs[graph_idx]``, computed at most once per
    process (``cache`` is the worker's process-local dict).  A caller that
    already holds the reference runs passes them as ``refs`` to skip
    recomputation."""
    ref = cache.get(("ref", graph_idx))
    if ref is None:
        if refs is not None:
            ref = refs[graph_idx]
        else:
            from .sweep import reference_run  # sweep imports engine
            ref = reference_run(graphs[graph_idx], platform)
        cache[("ref", graph_idx)] = ref
    return ref


def default_chunk_size(n_cells: int, jobs: int) -> int:
    """Cells per work unit: ~4 chunks per worker balances stragglers
    against per-chunk IPC, capped so tiny grids still spread out."""
    return max(1, n_cells // (jobs * 4))


def map_cells(
    worker: Callable[[object, dict, object], object],
    payload: object,
    cells: Sequence[object],
    *,
    jobs: int = 1,
) -> list:
    """Map ``worker(payload, cache, cell)`` over ``cells``, returning
    results in cell order.

    ``worker`` must be a top-level function and must not mutate
    ``payload``; ``cache`` is a dict scoped to the executing process
    (short-lived for ``jobs=1``) that survives across that worker's cells.
    With ``jobs > 1`` the cells are fanned out over a process pool in
    chunks of :func:`default_chunk_size`; exceptions raised by any cell
    propagate to the caller in both modes.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(cells) <= 1:
        return _serial_cells(worker, payload, cells)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)),
        initializer=_init_worker,
        initargs=(worker, payload),
    ) as pool, obs.span("map_cells", mode="pool", n_cells=len(cells),
                        jobs=jobs):
        return list(pool.map(_call_cell, cells,
                             chunksize=default_chunk_size(len(cells), jobs)))


def _serial_cells(worker, payload, cells):
    """The serial ``map_cells`` loop.  With :mod:`repro.obs` active each
    cell lands in the ``memsched_cell_seconds{mode="serial"}`` histogram
    and (with a tracer attached) emits a ``cell`` span keyed by its grid
    index.  Without it the loop never reads the clock."""
    st = obs.active()
    cache: dict = {}
    results = []
    with obs.span("map_cells", mode="serial", n_cells=len(cells)):
        if st is not None:
            hist = st.registry.histogram("memsched_cell_seconds",
                                         mode="serial")
            tracer = st.tracer
            parent = tracer.current() if tracer is not None else None
        for i, cell in enumerate(cells):
            if st is not None:
                t0 = time.perf_counter()
            result = worker(payload, cache, cell)
            if st is not None:
                duration = time.perf_counter() - t0
                hist.observe(duration)
                if tracer is not None:
                    tracer.emit(
                        "cell",
                        span_id=tracer.child_id(parent, "cell", key=i),
                        parent_id=parent, dur=duration, attrs={"i": i})
            results.append(result)
    return results


# ----------------------------------------------------------------------
# feasibility frontier (binary search over the uniform memory bound)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrontierPoint:
    """Smallest feasible uniform memory bound found for one
    (graph, algorithm) pair."""

    graph_name: str
    algorithm: str
    #: Smallest bound where the heuristic produced a schedule.
    feasible_bound: float
    #: Largest probed bound below it that failed (0.0 when the heuristic
    #: succeeded at every probe).
    infeasible_bound: float
    #: Heuristic invocations spent (search + verification).
    n_evals: int
    #: ``None`` without verification; ``False`` when a feasible bound was
    #: found *below* the reported frontier (non-monotone heuristic).
    verified: Optional[bool]


def _is_feasible(graph: TaskGraph, platform: Platform, algorithm: str,
                 bound: float) -> bool:
    try:
        get_scheduler(algorithm)(graph, platform.with_uniform_bound(bound))
    except InfeasibleScheduleError:
        return False
    return True


def feasibility_frontier(
    graph: TaskGraph,
    platform: Platform,
    algorithm: str,
    *,
    hi: Optional[float] = None,
    rel_tol: float = 1e-2,
    verify_samples: int = 0,
) -> FrontierPoint:
    """Binary-search the smallest uniform memory bound under which
    ``algorithm`` schedules ``graph``.

    ``hi`` defaults to the memory-oblivious HEFT requirement (the alpha=1
    point of the normalised sweeps) and is doubled until feasible.  The
    search assumes feasibility is monotone in the bound, which holds
    empirically but is not guaranteed for list heuristics; pass
    ``verify_samples > 0`` to probe that many bounds below the reported
    frontier — any feasible probe flags the result ``verified=False``
    (and the caller should fall back to a grid sweep for that pair).
    """
    from .sweep import reference_run  # local import: sweep imports engine

    n_evals = 0
    if hi is None:
        hi = reference_run(graph, platform).ref_memory
    if hi <= 0.0 or not math.isfinite(hi):
        raise ValueError(f"need a positive finite upper bound, got {hi}")
    lo = 0.0  # a zero bound is infeasible for any graph with data
    for _ in range(32):
        n_evals += 1
        if _is_feasible(graph, platform, algorithm, hi):
            break
        lo = hi  # every failed doubling probe tightens the bracket
        hi *= 2.0
    else:
        raise InfeasibleScheduleError(
            f"{algorithm} cannot schedule {graph.name!r} even with "
            f"bound {hi:g}")

    tol = rel_tol * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        n_evals += 1
        if _is_feasible(graph, platform, algorithm, mid):
            hi = mid
        else:
            lo = mid

    verified: Optional[bool] = None
    if verify_samples > 0:
        verified = True
        for k in range(1, verify_samples + 1):
            probe = lo * k / (verify_samples + 1)
            if probe <= 0.0:
                continue
            n_evals += 1
            if _is_feasible(graph, platform, algorithm, probe):
                verified = False
                break
    return FrontierPoint(
        graph_name=graph.name,
        algorithm=algorithm,
        feasible_bound=hi,
        infeasible_bound=lo,
        n_evals=n_evals,
        verified=verified,
    )


def _frontier_cell(payload: tuple, cache: dict, cell: tuple) -> FrontierPoint:
    graphs, platform, rel_tol, verify_samples = payload
    graph_idx, algorithm = cell
    ref = cached_reference(cache, graphs, platform, graph_idx)
    return feasibility_frontier(
        graphs[graph_idx], platform, algorithm,
        hi=ref.ref_memory, rel_tol=rel_tol, verify_samples=verify_samples)


def frontier_sweep(
    graphs: Sequence[TaskGraph],
    platform: Platform,
    algorithms: Sequence[str] = ("memheft", "memminmin"),
    *,
    rel_tol: float = 1e-2,
    verify_samples: int = 0,
    jobs: int = 1,
) -> list[FrontierPoint]:
    """Feasibility frontier of every (graph, algorithm) pair, sharded over
    ``jobs`` processes.  A logarithmic-probe replacement for sweeping a
    dense alpha grid when only the success boundary is of interest."""
    cells = [(gi, name) for gi in range(len(graphs)) for name in algorithms]
    payload = (tuple(graphs), platform, rel_tol, verify_samples)
    return map_cells(_frontier_cell, payload, cells, jobs=jobs)
