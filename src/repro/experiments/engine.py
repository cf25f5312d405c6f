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

Workers are plain top-level functions and payloads are plain picklable
values, so the engine works under both the ``fork`` and ``spawn`` start
methods.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Callable, Optional, Sequence

from .. import obs
from ..core.graph import TaskGraph
from ..core.platform import Platform

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
