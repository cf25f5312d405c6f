"""Task prioritisation: the upward rank of §5.1, over k memory classes.

``rank(i) = mean_c(W^(c)_i) + max_{j in Children(i)} (rank(j) + C_ij * (k-1)/k)``

computed in reverse topological order.  The expected communication weight of
an edge is ``C * (k - 1) / k`` — the chance that two uniformly chosen memory
classes differ — which reduces to the paper's ``C / 2`` on the dual-memory
platform (``k = 2``).

With a ``platform`` given, the execution term becomes *speed-aware*:
``mean_c(W^(c) / max_speed(c))`` — each class's time is normalised by its
fastest processor, the standard HEFT generalisation to heterogeneous
processors (average computation cost over resources).  On speed-1.0
platforms ``W / 1.0 == W`` bit-for-bit and the sum runs in the same class
order, so the ranks — and every schedule derived from them — are unchanged.

The task list of MemHEFT sorts by non-increasing rank; the paper breaks ties
randomly, which we reproduce with a seeded RNG (``rng=None`` keeps a
deterministic insertion-order tie-break, used by tests and the tie-breaking
ablation bench).
"""

from __future__ import annotations

from typing import Hashable, Optional

from .._util import RngLike, as_rng
from ..core.graph import FlatGraph, TaskGraph
from ..core.platform import Platform

Task = Hashable


def upward_rank_rows(flat: FlatGraph,
                     platform: Optional[Platform] = None) -> list[float]:
    """Upward rank of every row of a :class:`FlatGraph` (mean execution +
    expected communication), the one implementation behind
    :func:`upward_ranks` and the online session's per-job ranks.

    Rows are walked in reverse topological order; each finished rank is
    pushed to its parents over the parent CSR, so a parent's best child
    is complete before the parent is reached.  The max over children does
    not depend on the order they are visited in, so the ranks are the
    same bits whatever the edge order.  ``platform`` (optional) supplies
    per-class fastest speeds for the speed-aware execution term (classes
    without processors carry speed 1.0, keeping the mean aligned with the
    speed-less formula)."""
    k = flat.n_classes
    comm_weight = (k - 1) / k
    if platform is not None:
        if platform.n_classes != k:
            raise ValueError(
                f"graph has {k} memory classes, platform "
                f"{platform.n_classes}")
        fastest = platform.max_class_speeds
        mean_w = [sum(times[ci] / fastest[ci] for ci in range(k)) / k
                  for times in flat.times]
    else:
        mean_w = [sum(times) / len(times) for times in flat.times]

    parent_ptr, parent_row = flat.parent_ptr, flat.parent_row
    parent_comm = flat.parent_comm
    best_child = [0.0] * flat.n_tasks
    ranks = [0.0] * flat.n_tasks
    for row in range(flat.n_tasks - 1, -1, -1):
        rank = ranks[row] = mean_w[row] + best_child[row]
        for e in range(parent_ptr[row], parent_ptr[row + 1]):
            cand = rank + parent_comm[e] * comm_weight
            parent = parent_row[e]
            if cand > best_child[parent]:
                best_child[parent] = cand
    return ranks


def upward_ranks(graph: TaskGraph,
                 platform: Optional[Platform] = None) -> dict[Task, float]:
    """Upward rank of every task (see :func:`upward_rank_rows`)."""
    flat = graph.flatten()
    return dict(zip(flat.order, upward_rank_rows(flat, platform)))


def rank_order(graph: TaskGraph, rng: RngLike = None,
               platform: Optional[Platform] = None) -> list[Task]:
    """Tasks sorted by non-increasing upward rank.

    With ``rng`` given (seed or Generator), ties are broken uniformly at
    random as in the paper; otherwise ties keep a stable deterministic order.
    ``platform`` turns on the speed-aware execution term of
    :func:`upward_ranks` (a no-op on speed-1.0 platforms).
    """
    ranks = upward_ranks(graph, platform)
    order = list(graph.tasks())
    if rng is None:
        index = {t: k for k, t in enumerate(order)}
        order.sort(key=lambda t: (-ranks[t], index[t]))
        return order

    gen = as_rng(rng)
    # Shuffle first, then stable-sort by rank: equal ranks stay shuffled.
    gen.shuffle(order)
    order.sort(key=lambda t: -ranks[t])
    return order
