"""The exhaustive eager-schedule search (``eager_search.py``).

The ``dex()`` cases need neither numpy nor scipy, so they also run on the
standard-library-only CI leg.  ``PINS`` holds 21 results of the search as
it stood when it still cloned states: makespan, node count,
``exhausted`` and every placement in commit order.  Rebuilding a node by
replaying its committed breakdowns must visit the same tree.
"""

import json
import math
from pathlib import Path

import pytest

from repro import Platform, validate_schedule
from repro._util import HAS_NUMPY
from repro.dags import dex

from .eager_search import optimal_eager

PINS = json.loads((Path(__file__).parent.parent / "data"
                   / "exact_anchor_pins.json").read_text())["eager"]


class TestOptimalEagerOnDex:
    def test_unbounded_finds_6(self):
        res = optimal_eager(dex(), Platform(1, 1))
        assert res.feasible and res.exhausted
        assert res.makespan == 6
        validate_schedule(dex(), Platform(1, 1), res.schedule)
        assert res.schedule.meta["algorithm"] == "optimal-eager"

    def test_m4_finds_7(self):
        plat = Platform(1, 1, 4, 4)
        res = optimal_eager(dex(), plat)
        assert res.makespan == 7
        validate_schedule(dex(), plat, res.schedule)

    def test_m3_infeasible(self):
        res = optimal_eager(dex(), Platform(1, 1, 3, 3))
        assert not res.feasible
        assert res.makespan == math.inf

    def test_upper_bound_prunes_but_preserves_value(self):
        free = optimal_eager(dex(), Platform(1, 1))
        seeded = optimal_eager(dex(), Platform(1, 1), upper_bound=free.makespan + 1)
        assert seeded.makespan == free.makespan
        assert seeded.nodes <= free.nodes + 1

    def test_node_limit_reported(self):
        res = optimal_eager(dex(), Platform(1, 1), node_limit=3)
        assert not res.exhausted


def _cases():
    """``name -> (graph, platform)`` for every pinned case, in PINS order."""
    cases = {}
    for name, cap in (("unbounded", None), ("m4", 4), ("m3", 3)):
        plat = Platform(1, 1) if cap is None else Platform(1, 1, cap, cap)
        cases[f"dex-{name}"] = (dex, plat)
    if HAS_NUMPY:
        from repro.dags import tiny_rand_set
        from repro.scheduling.heft import heft
        for g in tiny_rand_set(6, 7):
            base = Platform(1, 1)
            peak = max(heft(g, base).meta["peaks"])
            for alpha in (0.6, 0.8, 1.0):
                cases[f"{g.name}@{alpha}"] = (
                    lambda g=g: g, base.with_uniform_bound(alpha * peak))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", list(PINS))
def test_matches_pinned_search(name):
    if name not in CASES:
        pytest.skip("tiny_rand_set draws with numpy")
    build, plat = CASES[name]
    res = optimal_eager(build(), plat)
    got = {
        "makespan": res.makespan if res.feasible else None,
        "nodes": res.nodes,
        "exhausted": res.exhausted,
        "placements": None if not res.feasible else [
            [p.task, p.proc, p.memory.index, p.start, p.finish]
            for p in res.schedule.placements()],
    }
    assert got == PINS[name]


def test_pins_cover_dex_and_the_tiny_set():
    assert len(PINS) == 21
    if HAS_NUMPY:
        assert list(CASES) == list(PINS)
