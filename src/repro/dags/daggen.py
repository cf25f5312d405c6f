"""DAGGEN-style random layered DAG generator (paper §6.1.1).

Reimplementation of the four-parameter generator the paper uses
(https://github.com/frs69wq/daggen):

* ``size``    — number of tasks, organised in levels;
* ``width``   — maximum parallelism knob in ``(0, 1]``: small values yield
  chain-like graphs, large values fork-join-like graphs.  Level sizes are
  drawn uniformly in ``[1, 2 * width * sqrt(size)]``;
* ``density`` — how many parents (among the previous level) each task gets;
* ``jumps``   — extra edges may skip up to ``jumps`` levels forward.

Weights are assigned separately by :func:`assign_uniform_weights` with the
paper's ranges (``W in [1, 20]``, ``C, F in [1, 10]`` for SmallRandSet;
all in ``[1, 100]`` for LargeRandSet).

How the numpy stream is drawn.  The structural draws are scalar calls,
because how many of them there are depends on earlier values: the level
sizes (one ``integers`` per level until ``size`` tasks are placed), each
non-root task's ``integers`` + ``choice`` pair, and each jump candidate's
``random``, followed by an ``integers`` for its source only when it
fires.  The weights are two vector calls: one ``integers`` for every
task time (task after task in the skeleton's topological order, classes
in order), and one for the interleaved ``(size, comm)`` pairs of the
edges in edge order (a broadcast over the two ranges when they differ).
numpy's bounded integer draws take their bits from the bit generator one
value at a time, the same way for a vector as for a run of scalar calls
(a zero range takes none), so both calls leave the stream, and every
graph, exactly as the scalar loops they replace did;
``tests/dags/test_daggen.py::TestNumpyStream`` checks that on the
installed numpy.  Each graph is built with one ``add_tasks`` and one
``add_dependencies`` call.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Optional

from .._util import RngLike, as_rng
from ..core.graph import TaskGraph


def _count(name: str, value, least: int) -> int:
    """``value`` as an ``int`` >= ``least``, else ``ValueError`` naming it."""
    try:
        whole = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if whole < least:
        raise ValueError(f"{name} must be >= {least}, got {whole}")
    return whole


def daggen_layers(size: int, width: float, rng: RngLike = None) -> list[int]:
    """Draw the level sizes: uniform in ``[1, max(1, round(2*width*sqrt(size)))]``
    until ``size`` tasks are allocated (last level truncated)."""
    size = _count("size", size, 1)
    if not 0 < width <= 1:
        raise ValueError(f"width must be in (0, 1], got {width!r}")
    gen = as_rng(rng)
    cap = max(1, round(2.0 * width * math.sqrt(size)))
    layers: list[int] = []
    remaining = size
    while remaining > 0:
        w = int(gen.integers(1, cap + 1))
        w = min(w, remaining)
        layers.append(w)
        remaining -= w
    return layers


def _edge_rows(layers: list[int], density: float, jumps: int, gen):
    """Yield the skeleton's ``(parent, child, 0.0, 0.0)`` edge rows in
    insertion order, drawing them from ``gen`` as they are read."""
    # Level ``l`` holds tasks ``starts[l] .. starts[l + 1] - 1``.
    starts = list(accumulate(layers, initial=0))
    integers, choice, random = gen.integers, gen.choice, gen.random
    half_density = density / 2.0

    # Consecutive-level edges: each non-root task draws between 1 and
    # 1 + round(density * (|prev| - 1)) distinct parents from the previous
    # level, so the density knob spans "tree-ish" to "bipartite-complete-ish".
    for lvl in range(1, len(layers)):
        first, n_prev = starts[lvl - 1], layers[lvl - 1]
        max_parents = 1 + round(density * (n_prev - 1))
        for t in range(starts[lvl], starts[lvl + 1]):
            k = int(integers(1, max_parents + 1))
            parents = choice(n_prev, size=min(k, n_prev), replace=False)
            for p in sorted(parents.tolist()):
                yield first + p, t, 0.0, 0.0

    # Jump edges: from level l to levels l+2 .. l+jumps, each added with
    # probability density / 2 per (task, distance) pair, one random source.
    # A target task draws at most one source per level, so no jump edge
    # repeats another edge.
    for lvl in range(len(layers)):
        first, n_src = starts[lvl], layers[lvl]
        for target_lvl in range(lvl + 2, min(lvl + jumps, len(layers) - 1) + 1):
            for t in range(starts[target_lvl], starts[target_lvl + 1]):
                if random() < half_density:
                    yield first + int(integers(0, n_src)), t, 0.0, 0.0


def daggen(
    size: int = 30,
    width: float = 0.3,
    density: float = 0.5,
    jumps: int = 5,
    rng: RngLike = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Generate a random layered DAG; tasks are ``0..size-1`` in level order.

    Weights are *not* assigned (all zero); combine with
    :func:`assign_uniform_weights`.
    """
    if not (math.isfinite(density) and density >= 0):
        raise ValueError(f"density must be finite and >= 0, got {density!r}")
    jumps = _count("jumps", jumps, 1)
    gen = as_rng(rng)
    layers = daggen_layers(size, width, gen)
    g = TaskGraph(name=name or f"daggen(n={size},w={width},d={density},j={jumps})")
    g.add_tasks((t, (0.0, 0.0)) for t in range(sum(layers)))
    # The rows are drawn as add_dependencies reads them: no list of edges.
    g.add_dependencies(_edge_rows(layers, density, jumps, gen))
    return g


def assign_uniform_weights(
    graph: TaskGraph,
    rng: RngLike = None,
    *,
    w_range: tuple[int, int] = (1, 20),
    c_range: tuple[int, int] = (1, 10),
    f_range: tuple[int, int] = (1, 10),
) -> TaskGraph:
    """Overwrite weights with integers drawn uniformly from closed ranges
    (the paper's SmallRandSet uses ``W in [1,20]``, ``C, F in [1,10]``).

    Every task gets one time per memory class of ``graph``, in class
    order (``w_blue`` then ``w_red`` on a dual graph).  Returns a new
    :class:`TaskGraph` with the same classes; the input is not modified.
    """
    gen = as_rng(rng)
    order = graph.topological_order()
    times = gen.integers(w_range[0], w_range[1] + 1,
                         size=(len(order), graph.n_classes)).tolist()
    lows, highs = (f_range[0], c_range[0]), (f_range[1] + 1, c_range[1] + 1)
    if f_range == c_range:
        # The same draws; scalar bounds skip the one-off set-up (about
        # 0.25 MB resident) of numpy's broadcast bound checks.
        lows, highs = lows[0], highs[0]
    # (size, comm) pairs, flat: no list per edge.
    pairs = gen.integers(lows, highs, size=(graph.n_edges, 2)).ravel().tolist()
    g = TaskGraph(name=graph.name, n_classes=graph.n_classes)
    g.add_tasks(zip(order, times))
    g.add_dependencies((u, v, size, comm) for (u, v), size, comm
                       in zip(graph.edges(), pairs[0::2], pairs[1::2]))
    return g


def random_dag(
    size: int = 30,
    width: float = 0.3,
    density: float = 0.5,
    jumps: int = 5,
    rng: RngLike = None,
    *,
    w_range: tuple[int, int] = (1, 20),
    c_range: tuple[int, int] = (1, 10),
    f_range: tuple[int, int] = (1, 10),
) -> TaskGraph:
    """One-call generator: :func:`daggen` structure + uniform weights."""
    gen = as_rng(rng)
    skeleton = daggen(size, width, density, jumps, rng=gen)
    return assign_uniform_weights(skeleton, rng=gen,
                                  w_range=w_range, c_range=c_range, f_range=f_range)
