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
over N worker processes (identical results for any value).  The
comm-policy ablation is the normalised sweep's own (graph, alpha) grid
(:func:`repro.experiments.sweep._grid`), run over the two MemHEFT
transfer policies instead of over registry names.  The tie-break seeds
are derived per cell with :func:`repro.experiments.engine.cell_seed`, so
every (graph, repetition) draws the same randomness under any sharding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..scheduling.memheft import memheft
from .engine import cell_seed, map_cells
from .sweep import _grid, _mean, _normalized_cell


@dataclass
class CommPolicyRow:
    alpha: float
    late_success: int
    eager_success: int
    late_mean_norm: Optional[float]
    eager_mean_norm: Optional[float]
    n_graphs: int


def comm_policy_ablation(
    graphs: Sequence[TaskGraph],
    platform: Platform,
    alphas: Sequence[float],
    *,
    jobs: int = 1,
) -> list[CommPolicyRow]:
    """Compare MemHEFT with late vs eager transfer placement."""
    runs = (partial(memheft, comm_policy="late"),
            partial(memheft, comm_policy="eager"))
    grid = _grid(_normalized_cell,
                 (tuple(graphs), platform, runs, False, None), alphas, jobs)
    out: list[CommPolicyRow] = []
    for alpha in alphas:
        late, eager = grid[alpha]
        out.append(CommPolicyRow(
            alpha=alpha,
            late_success=len(late),
            eager_success=len(eager),
            late_mean_norm=_mean(late),
            eager_mean_norm=_mean(eager),
            n_graphs=len(graphs),
        ))
    return out


@dataclass
class TiebreakRow:
    graph_name: str
    deterministic: float
    seeded_mean: float
    seeded_min: float
    seeded_max: float


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
