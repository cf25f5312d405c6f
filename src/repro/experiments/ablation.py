"""Ablations of two design choices of the paper's heuristics.

* :func:`comm_policy_ablation` — the paper schedules incoming transfers *as
  late as possible* (§5.1); the ``eager`` variant fires them as early as
  memory allows.  Late transfers keep the destination memory free longer and
  should succeed at tighter bounds.
* :func:`tiebreak_ablation` — the paper breaks rank ties randomly; this
  measures the makespan spread over tie-break seeds (and the deterministic
  order) to show how much of the result is tie-break noise.

Both ablations decompose into independent cells executed through
:func:`repro.experiments.engine.map_cells`; pass ``jobs=N`` to shard them
over N worker processes (identical results for any value).  The tie-break
seeds are derived per cell with :func:`repro.experiments.engine.cell_seed`,
so every (graph, repetition) draws the same randomness under any sharding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.graph import TaskGraph
from ..io.json_io import register_wire_dataclass
from ..core.platform import Platform
from ..scheduling.memheft import memheft
from ..scheduling.state import InfeasibleScheduleError
from .engine import cached_reference, cell_seed, map_cells, remote_worker


@dataclass
class CommPolicyRow:
    alpha: float
    late_success: int
    eager_success: int
    late_mean_norm: Optional[float]
    eager_mean_norm: Optional[float]
    n_graphs: int


_POLICIES = ("late", "eager")


@remote_worker("ablation.comm_policy")
def _comm_policy_cell(payload: tuple, cache: dict,
                      cell: tuple) -> list[Optional[float]]:
    """One (graph, alpha) cell: normalised MemHEFT makespan per transfer
    policy, ``None`` when infeasible."""
    graphs, platform = payload
    graph_idx, alpha = cell
    ref = cached_reference(cache, graphs, platform, graph_idx)
    bounded = platform.with_uniform_bound(alpha * ref.ref_memory)
    out: list[Optional[float]] = []
    for policy in _POLICIES:
        try:
            s = memheft(ref.graph, bounded, comm_policy=policy)
        except InfeasibleScheduleError:
            out.append(None)
            continue
        out.append(s.makespan / ref.makespan)
    return out


def comm_policy_ablation(
    graphs: Sequence[TaskGraph],
    platform: Platform,
    alphas: Sequence[float],
    *,
    jobs: int = 1,
) -> list[CommPolicyRow]:
    """Compare MemHEFT with late vs eager transfer placement."""
    import numpy as np

    # Graph-major order: one graph's cells stay in one chunk, so its
    # reference run is computed by ~one process (see normalized_sweep).
    cells = [(gi, alpha) for gi in range(len(graphs)) for alpha in alphas]
    rows = map_cells(_comm_policy_cell, (tuple(graphs), platform), cells,
                     jobs=jobs)
    cell_of = dict(zip(cells, rows))
    out: list[CommPolicyRow] = []
    for alpha in alphas:
        stats: dict[str, list[float]] = {p: [] for p in _POLICIES}
        for gi in range(len(graphs)):
            for policy, norm in zip(_POLICIES, cell_of[(gi, alpha)]):
                if norm is not None:
                    stats[policy].append(norm)
        out.append(CommPolicyRow(
            alpha=alpha,
            late_success=len(stats["late"]),
            eager_success=len(stats["eager"]),
            late_mean_norm=float(np.mean(stats["late"])) if stats["late"] else None,
            eager_mean_norm=float(np.mean(stats["eager"])) if stats["eager"] else None,
            n_graphs=len(graphs),
        ))
    return out


@register_wire_dataclass
@dataclass
class TiebreakRow:
    graph_name: str
    deterministic: float
    seeded_mean: float
    seeded_min: float
    seeded_max: float


@remote_worker("ablation.tiebreak")
def _tiebreak_cell(payload: tuple, cache: dict, graph_idx: int) -> TiebreakRow:
    """All repetitions of one graph (the deterministic run plus the seeded
    spread; seeds derived per cell, stable under sharding)."""
    import numpy as np

    graphs, platform, n_seeds = payload
    graph = graphs[graph_idx]
    det = memheft(graph, platform).makespan
    seeded = [
        memheft(graph, platform,
                rng=cell_seed("tiebreak", graph.name, k)).makespan
        for k in range(n_seeds)
    ]
    return TiebreakRow(
        graph_name=graph.name,
        deterministic=det,
        seeded_mean=float(np.mean(seeded)),
        seeded_min=float(np.min(seeded)),
        seeded_max=float(np.max(seeded)),
    )


def tiebreak_ablation(
    graphs: Sequence[TaskGraph],
    platform: Platform,
    *,
    n_seeds: int = 5,
    jobs: int = 1,
) -> list[TiebreakRow]:
    """Makespan spread of MemHEFT over rank tie-break randomisation."""
    payload = (tuple(graphs), platform, n_seeds)
    return map_cells(_tiebreak_cell, payload, list(range(len(graphs))),
                     jobs=jobs)
