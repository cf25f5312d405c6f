"""``split_work_lower_bound`` against values pinned from the two LPs it
used to carry: a dual-platform LP (``k = 2``) and a dense k-class LP.

One sparse LP now serves every k.  At ``k = 2`` it is the dual LP row for
row, so the 63 two-class cases must match bit for bit; the 12 three-class
cases must agree within 1e-12 relative.  The dense k-class LP needed an
n x (nk + 1) equality matrix: 276 MB of tracemalloc peak at k = 3 and
n = 2000, where the sparse one stays under 16 MB.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from repro import Platform, TaskGraph
from repro._util import is_installed

pytestmark = pytest.mark.skipif(
    not (is_installed("numpy") and is_installed("scipy")),
    reason="the LP bound and the daggen generator need numpy + scipy")

PINS = json.loads((Path(__file__).parent.parent / "data"
                   / "exact_anchor_pins.json").read_text())

K3_PLATFORMS = {"1-1-1": ([1, 1, 1], None), "4-2-1": ([4, 2, 1], None),
                "2-0-3": ([2, 0, 3], None),
                "hetero": ([1, 2, 1], [2.0, 1.0, 0.5, 1.5])}


def _k2_graphs():
    from repro.dags import cholesky_dag, lu_dag, random_dag
    graphs = {f"daggen{n}_s{s}": (lambda n=n, s=s: random_dag(n, rng=s))
              for n in (30, 200, 1000) for s in range(5)}
    for build in (lu_dag, cholesky_dag):
        for tiles in (4, 8, 13):
            graphs[f"{build.__name__}{tiles}"] = (
                lambda build=build, tiles=tiles: build(tiles))
    return graphs


def tri_graph(n, seed):
    """The tasks of ``random_dag(n, rng=seed)`` with a third, integral
    processing time derived from the first two (edges play no part in
    the bound)."""
    from repro.dags import random_dag
    base = random_dag(n, rng=seed)
    g = TaskGraph(f"tri{n}_{seed}", n_classes=3)
    g.add_tasks(
        (t, (base.w(t, 0), base.w(t, 1),
             float(1 + (3 * base.w(t, 0) + 5 * base.w(t, 1)) % 23)))
        for t in base.tasks())
    return g


def _bound(graph, platform):
    from repro.core.bounds import split_work_lower_bound
    return split_work_lower_bound(graph, platform)


def test_k2_matches_the_dual_lp_bit_for_bit():
    want = PINS["split_work_k2"]
    got = {}
    for name, build in _k2_graphs().items():
        g = build()
        for procs in ((1, 1), (12, 3), (2, 2)):
            got[f"{name}@{procs[0]}x{procs[1]}"] = _bound(
                g, Platform(*procs)).hex()
    assert len(want) == 63
    assert got == want


def test_k3_matches_the_dense_lp():
    want = PINS["split_work_k3"]
    got = {}
    for n, seed in ((30, 0), (200, 1), (1000, 2)):
        g = tri_graph(n, seed)
        for name, (counts, speeds) in K3_PLATFORMS.items():
            got[f"tri{n}_s{seed}@{name}"] = _bound(
                g, Platform(counts, speeds=speeds))
    assert set(got) == set(want)
    for key, value in got.items():
        assert value == pytest.approx(float.fromhex(want[key]), rel=1e-12), key


def test_k3_n2000_stays_sparse():
    g = tri_graph(2000, 3)
    platform = Platform([1, 1, 1])
    _bound(tri_graph(5, 0), platform)   # numpy and scipy imported
    tracemalloc.start()
    try:
        value = _bound(g, platform)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(3895.171428571434, rel=1e-12)
    assert peak <= 16 * 2**20
