"""Experiment scale presets.

The paper's evaluation sizes (100 DAGs of 1000 tasks, 13x13-tile
factorisations, 50-graph ILP sweeps) take about 3.5 minutes of
pure-Python compute on one core, too long for a test run, so every
experiment driver takes a :class:`Scale`:

* ``ci``      — seconds; used by the test suite's smoke tests;
* ``default`` — minutes; the benchmark suite's default, already large enough
  for every qualitative conclusion of the paper to show;
* ``paper``   — the sizes of §6.1 (ILP graph size excepted: HiGHS stands in
  for the paper's CPLEX and proves optimality on TinyRandSet's 5-8 tasks,
  not on the paper's 30-task graphs).

Select with the ``REPRO_SCALE`` environment variable or pass explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """All experiment size knobs for one preset."""

    name: str
    #: SmallRandSet (Figures 10-11).
    small_n_graphs: int
    small_size: int
    #: TinyRandSet — the optimal (ILP) comparison of Figure 10.
    tiny_n_graphs: int
    tiny_size: int
    #: LargeRandSet (Figures 12-13).
    large_n_graphs: int
    large_size: int
    #: Tile counts (Figures 14-15).
    lu_tiles: int
    cholesky_tiles: int
    #: Normalised memory grid (alpha values).
    n_alphas: int
    #: ILP effort caps.
    ilp_node_limit: int
    ilp_time_limit: float


SCALES: dict[str, Scale] = {
    "ci": Scale(
        name="ci",
        small_n_graphs=6, small_size=16,
        tiny_n_graphs=3, tiny_size=5,
        large_n_graphs=3, large_size=50,
        lu_tiles=4, cholesky_tiles=4,
        n_alphas=5,
        ilp_node_limit=2000, ilp_time_limit=10.0,
    ),
    "default": Scale(
        name="default",
        small_n_graphs=20, small_size=30,
        tiny_n_graphs=6, tiny_size=7,
        large_n_graphs=8, large_size=120,
        lu_tiles=8, cholesky_tiles=8,
        n_alphas=10,
        ilp_node_limit=6000, ilp_time_limit=30.0,
    ),
    "paper": Scale(
        name="paper",
        small_n_graphs=50, small_size=30,
        tiny_n_graphs=10, tiny_size=8,
        large_n_graphs=100, large_size=1000,
        lu_tiles=13, cholesky_tiles=13,
        n_alphas=20,
        ilp_node_limit=200000, ilp_time_limit=600.0,
    ),
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name, or from ``REPRO_SCALE`` (default ``default``)."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "default")
    try:
        return SCALES[name]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise ValueError(f"unknown scale {name!r}; known: {known}") from None
