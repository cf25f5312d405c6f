"""Sharded parallel experiment engine.

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
from ..io.json_io import register_wire_dataclass
from ..scheduling.registry import get_scheduler
from ..scheduling.state import InfeasibleScheduleError

#: Per-process worker context: (worker function, payload, cache dict).
_WORKER: dict = {}

#: Cell workers invocable by name over the wire (``POST /cells``), filled
#: by the :func:`remote_worker` decorator.  Execution on a service host is
#: restricted to this registry — the wire carries *names*, never code.
_REMOTE_WORKERS: dict = {}

#: Ambient host list (or executor) consulted by :func:`map_cells` when no
#: explicit ``hosts`` argument is given; set via
#: :func:`repro.experiments.remote.remote_hosts`.
_DEFAULT_HOSTS = None

#: Ambient checkpoint journal consulted by :func:`map_cells` when no
#: explicit ``checkpoint`` argument is given; set via
#: :func:`repro.experiments.checkpoint.checkpointing`.
_DEFAULT_CHECKPOINT = None


def remote_worker(name: str) -> Callable:
    """Decorator registering a top-level cell worker for remote execution.

    The registered name is what travels in a ``POST /cells`` request; the
    function itself must stay importable on every host (same package
    version).  The decorator stamps the function with ``_remote_name`` so
    :func:`map_cells` can route it to hosts transparently.
    """
    def register(fn: Callable) -> Callable:
        if name in _REMOTE_WORKERS and _REMOTE_WORKERS[name] is not fn:
            raise ValueError(f"remote worker {name!r} already registered")
        _REMOTE_WORKERS[name] = fn
        fn._remote_name = name
        return fn
    return register


def _ensure_builtin_workers() -> None:
    """Import the modules whose import registers the built-in cell
    workers (idempotent; safe in server processes and pool workers)."""
    from . import ablation, sweep  # noqa: F401  (import == registration)


def get_remote_worker(name: str) -> Callable:
    """Resolve a registered cell worker; raises ``ValueError`` with the
    known names when unknown."""
    _ensure_builtin_workers()
    fn = _REMOTE_WORKERS.get(name)
    if fn is None:
        raise ValueError(f"unknown remote cell worker {name!r} "
                         f"(known: {sorted(_REMOTE_WORKERS)})")
    return fn


def remote_worker_names() -> list:
    """Registered cell-worker names (after importing the built-ins)."""
    _ensure_builtin_workers()
    return sorted(_REMOTE_WORKERS)


def set_default_hosts(hosts):
    """Install the ambient host list/executor used when ``map_cells`` is
    called without an explicit ``hosts``; returns the previous value (the
    :func:`repro.experiments.remote.remote_hosts` context manager restores
    it)."""
    global _DEFAULT_HOSTS
    previous = _DEFAULT_HOSTS
    _DEFAULT_HOSTS = hosts
    return previous


def set_default_checkpoint(checkpoint):
    """Install the ambient checkpoint journal used when ``map_cells`` is
    called without an explicit ``checkpoint``; returns the previous value
    (the :func:`repro.experiments.checkpoint.checkpointing` context
    manager restores it)."""
    global _DEFAULT_CHECKPOINT
    previous = _DEFAULT_CHECKPOINT
    _DEFAULT_CHECKPOINT = checkpoint
    return previous


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
    hosts=None,
    checkpoint=None,
) -> list:
    """Map ``worker(payload, cache, cell)`` over ``cells``, returning
    results in cell order.

    ``worker`` must be a top-level function and must not mutate
    ``payload``; ``cache`` is a dict scoped to the executing process
    (short-lived for ``jobs=1``) that survives across that worker's cells.
    With ``jobs > 1`` the cells are fanned out over a process pool in
    chunks of :func:`default_chunk_size`; exceptions raised by any cell
    propagate to the caller in both modes.

    ``hosts`` — a list of ``"host:port"`` addresses of running ``memsched
    serve`` instances (or a prepared
    :class:`repro.experiments.remote.RemoteExecutor`) — shards the cells
    *across machines* instead: ``worker`` must then be registered with
    :func:`remote_worker`.  When ``hosts`` is omitted the ambient value
    installed by :func:`repro.experiments.remote.remote_hosts` applies, so
    every sweep gains multi-host mode without touching its driver.  All
    three modes run the same cell functions and aggregate in the same
    order — serial ≡ ``jobs=N`` ≡ distributed, by construction.

    ``checkpoint`` — a journal path or an open
    :class:`repro.experiments.checkpoint.CellCheckpoint` — journals each
    completed cell's result as it lands (in every mode), and replays
    already-completed cells from the journal instead of re-executing
    them, so a crashed campaign resumes where it stopped with
    byte-identical output.  Defaults to the ambient journal installed by
    :func:`repro.experiments.checkpoint.checkpointing`.
    """
    cells = list(cells)
    if hosts is None:
        hosts = _DEFAULT_HOSTS
    if checkpoint is None:
        checkpoint = _DEFAULT_CHECKPOINT
    if checkpoint is not None and cells:
        return _map_cells_checkpointed(worker, payload, cells, jobs=jobs,
                                       hosts=hosts, checkpoint=checkpoint)
    return _map_cells_direct(worker, payload, cells, jobs=jobs, hosts=hosts)


def _map_cells_direct(worker, payload, cells, *, jobs, hosts,
                      on_result=None):
    """The three execution modes, un-checkpointed.  ``on_result(index,
    result_object)`` (local modes) is invoked as each cell lands, in
    completion order — the checkpoint layer's incremental-journal hook;
    the distributed mode passes the wire-level equivalent through to the
    executor, which owns result decoding."""
    if hosts is not None and cells:
        from .remote import run_remote  # deferred: remote imports engine
        with obs.span("map_cells", mode="remote", n_cells=len(cells)):
            return run_remote(worker, payload, cells, hosts,
                              on_result_wire=on_result)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(cells) <= 1:
        return _serial_cells(worker, payload, cells, on_result)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)),
        initializer=_init_worker,
        initargs=(worker, payload),
    ) as pool, obs.span("map_cells", mode="pool", n_cells=len(cells),
                        jobs=jobs):
        results = []
        # pool.map yields in cell order as results arrive, so the hook
        # sees completed prefixes incrementally, not one burst at the end.
        for i, result in enumerate(pool.map(
                _call_cell, cells,
                chunksize=default_chunk_size(len(cells), jobs))):
            if on_result is not None:
                on_result(i, result)
            results.append(result)
        return results


def _serial_cells(worker, payload, cells, on_result):
    """The serial ``map_cells`` loop.  With :mod:`repro.obs` active each
    cell lands in the ``memsched_cell_seconds{mode="serial"}`` histogram
    and (with a tracer attached) emits a ``cell`` span keyed by its grid
    index — structurally identical to the spans the distributed
    coordinator re-emits, so serial and sharded traces line up.  Without
    it the loop never reads the clock."""
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
            if on_result is not None:
                on_result(i, result)
            results.append(result)
    return results


def _map_cells_checkpointed(worker, payload, cells, *, jobs, hosts,
                            checkpoint):
    """Resolve ``cells`` against a checkpoint journal, execute only the
    missing ones (journaling each as it completes), and return the full
    result list — byte-identical to an uninterrupted run, because cell
    wire round-trips exactly and workers are pure."""
    from ..io.json_io import from_cell_wire, to_cell_wire
    from .checkpoint import CellCheckpoint, call_key, cell_key, \
        payload_digest

    owned = not isinstance(checkpoint, CellCheckpoint)
    ckpt = CellCheckpoint(checkpoint, resume=True) if owned else checkpoint
    try:
        name = getattr(worker, "_remote_name", None) \
            or getattr(worker, "__qualname__", str(worker))
        pdigest = payload_digest(to_cell_wire(payload))
        wires = [to_cell_wire(c) for c in cells]
        keys = [cell_key(name, pdigest, w) for w in wires]
        ck = call_key(name, pdigest, keys)

        _nothing = object()
        results = [_nothing] * len(cells)
        pending: list = []      # indices to execute (first per unique key)
        seen: dict = {}         # key -> first pending index
        for i, key in enumerate(keys):
            hit = ckpt.get(key, _nothing)
            if hit is not _nothing:
                results[i] = from_cell_wire(hit)
            elif key in seen:
                pass            # duplicate cell: executed once, filled below
            else:
                seen[key] = i
                pending.append(i)

        if pending:
            def on_result(j: int, result: object) -> None:
                ckpt.record(keys[pending[j]], to_cell_wire(result))

            def on_result_wire(j: int, result_wire: object) -> None:
                ckpt.record(keys[pending[j]], result_wire)

            hook = on_result_wire if hosts is not None else on_result
            sub = _map_cells_direct(
                worker, payload, [cells[i] for i in pending], jobs=jobs,
                hosts=hosts, on_result=hook)
            for j, i in enumerate(pending):
                results[i] = sub[j]
        # Fill duplicates (and anything else) from the journal.
        for i, key in enumerate(keys):
            if results[i] is _nothing:
                results[i] = from_cell_wire(ckpt.get(key))
        ckpt.mark_done(ck, len(cells))
        return results
    finally:
        if owned:
            ckpt.close()


# ----------------------------------------------------------------------
# feasibility frontier (binary search over the uniform memory bound)
# ----------------------------------------------------------------------
@register_wire_dataclass
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


@remote_worker("engine.frontier")
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
