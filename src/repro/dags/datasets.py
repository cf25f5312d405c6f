"""The four benchmark DAG families of §6.1, plus the tiny set used for the
optimal (ILP) comparison.

Every builder is deterministic given its ``seed``; per-graph seeds are spawned
from the set seed so individual graphs are reproducible in isolation.
numpy (the seed sequences) is imported on the first draw, not with this
module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .._util import require_numpy
from ..core.graph import TaskGraph
from .daggen import random_dag
from .linalg import cholesky_dag, lu_dag

#: Structure parameters shared by both random sets (paper §6.1.1).
RAND_WIDTH = 0.3
RAND_DENSITY = 0.5
RAND_JUMPS = 5

if TYPE_CHECKING:  # pragma: no cover
    import numpy


def _seeds(seed: int, count: int) -> list[numpy.random.Generator]:
    np = require_numpy("the benchmark DAG sets")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _rand_set(prefix: str, n_graphs: int, size: int, seed: int, *,
              width: float = RAND_WIDTH, jumps: int = RAND_JUMPS,
              w_range=(1, 20), c_range=(1, 10), f_range=(1, 10)
              ) -> list[TaskGraph]:
    """``n_graphs`` daggen DAGs named ``prefix[idx]``, one spawned seed
    each."""
    graphs = []
    for idx, rng in enumerate(_seeds(seed, n_graphs)):
        g = random_dag(size=size, width=width, density=RAND_DENSITY,
                       jumps=jumps, rng=rng, w_range=w_range,
                       c_range=c_range, f_range=f_range)
        g.name = f"{prefix}[{idx}]"
        graphs.append(g)
    return graphs


def small_rand_set(n_graphs: int = 50, size: int = 30, seed: int = 2014
                   ) -> list[TaskGraph]:
    """SmallRandSet: 50 DAGs, 30 tasks, ``W in [1,20]``, ``C, F in [1,10]``."""
    return _rand_set("small_rand", n_graphs, size, seed)


def tiny_rand_set(n_graphs: int = 10, size: int = 7, seed: int = 7
                  ) -> list[TaskGraph]:
    """Same family as SmallRandSet but small enough for the exact ILP
    (HiGHS in place of the paper's CPLEX) to prove optimality."""
    return _rand_set("tiny_rand", n_graphs, size, seed, width=0.5,
                     jumps=min(RAND_JUMPS, 3))


def large_rand_set(n_graphs: int = 15, size: int = 150, seed: int = 1000
                   ) -> list[TaskGraph]:
    """LargeRandSet: the paper uses 100 DAGs of 1000 tasks with all weights
    in ``[1, 100]``; defaults here are scaled down for a pure-Python run
    (pass ``n_graphs=100, size=1000`` for paper scale)."""
    return _rand_set("large_rand", n_graphs, size, seed, w_range=(1, 100),
                     c_range=(1, 100), f_range=(1, 100))


def huge_rand_set(n_graphs: int = 5, size: int = 500, seed: int = 5000
                  ) -> list[TaskGraph]:
    """HugeRandSet: a larger daggen scale than LargeRandSet (defaults: 5
    DAGs of 500 tasks, all weights in ``[1, 100]``) for the scheduling
    service's load generator and the scaling benchmarks.  The paper-scale
    LargeRandSet is ``n_graphs=100, size=1000``; this set keeps the same
    structure parameters at an intermediate, pure-Python-tractable size —
    tests using it are ``slow``-marked.
    """
    return _rand_set("huge_rand", n_graphs, size, seed, w_range=(1, 100),
                     c_range=(1, 100), f_range=(1, 100))


def lu_set(tile_counts: Sequence[int] = (4, 8, 13)) -> list[TaskGraph]:
    """LUSet: LU factorisation DAGs for several tiled-matrix sizes."""
    return [lu_dag(t) for t in tile_counts]


def cholesky_set(tile_counts: Sequence[int] = (4, 8, 13)) -> list[TaskGraph]:
    """CholeskySet: Cholesky factorisation DAGs."""
    return [cholesky_dag(t) for t in tile_counts]
