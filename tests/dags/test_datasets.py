"""Benchmark dataset builders: sizes, ranges, per-graph determinism."""

import hashlib

import pytest

from repro.dags import (
    cholesky_set,
    huge_rand_set,
    large_rand_set,
    lu_set,
    small_rand_set,
    tiny_rand_set,
)
from repro.io.json_io import canonical_json, graph_to_dict

#: sha256 of ``canonical_json(graph_to_dict(g))`` for the first graph of
#: each random set at its default size and seed, recorded before the four
#: set functions shared one loop.
FIRST_GRAPH_DIGESTS = {
    small_rand_set: "faf07e2868d3e212801ddd7f09e4d295"
                    "4523e67dd0f99adbfbc460b9c7540c93",
    tiny_rand_set: "9251bf5d988e3091b9cd9d1d126775cd"
                   "6464070ad718a61cc45b08f078dbc041",
    large_rand_set: "7d67a99c4340495993d933c1b76ef2c8"
                    "34f942922083c058762857df8e49d1e4",
    huge_rand_set: "25b5ec6f00dbb85181d5b2af080942c0"
                   "ac5e5199c788480dc2919a91eeb8db5d",
}


@pytest.mark.parametrize("build", list(FIRST_GRAPH_DIGESTS),
                         ids=lambda build: build.__name__)
def test_first_graphs_are_pinned(build):
    graph = build(n_graphs=1)[0]
    payload = canonical_json(graph_to_dict(graph)).encode()
    assert hashlib.sha256(payload).hexdigest() == FIRST_GRAPH_DIGESTS[build]


class TestRandomSets:
    def test_small_set_shape(self):
        graphs = small_rand_set(n_graphs=5, size=30)
        assert len(graphs) == 5
        assert all(g.n_tasks == 30 for g in graphs)

    def test_small_set_weight_ranges(self):
        for g in small_rand_set(n_graphs=3):
            for t in g.tasks():
                assert 1 <= g.w_blue(t) <= 20
            for u, v in g.edges():
                assert 1 <= g.size(u, v) <= 10
                assert 1 <= g.comm(u, v) <= 10

    def test_large_set_weight_ranges(self):
        for g in large_rand_set(n_graphs=2, size=40):
            for t in g.tasks():
                assert 1 <= g.w_blue(t) <= 100
            for u, v in g.edges():
                assert 1 <= g.size(u, v) <= 100

    def test_tiny_set_is_small(self):
        graphs = tiny_rand_set(n_graphs=4, size=6)
        assert all(g.n_tasks == 6 for g in graphs)

    def test_deterministic_by_seed(self):
        a = small_rand_set(n_graphs=3, seed=11)
        b = small_rand_set(n_graphs=3, seed=11)
        for ga, gb in zip(a, b):
            assert list(ga.edges()) == list(gb.edges())
            assert all(ga.w_blue(t) == gb.w_blue(t) for t in ga.tasks())

    def test_different_seed_differs(self):
        a = small_rand_set(n_graphs=1, seed=1)[0]
        b = small_rand_set(n_graphs=1, seed=2)[0]
        assert (list(a.edges()) != list(b.edges())
                or any(a.w_blue(t) != b.w_blue(t) for t in a.tasks()))

    def test_graphs_within_a_set_differ(self):
        graphs = small_rand_set(n_graphs=3)
        assert (list(graphs[0].edges()) != list(graphs[1].edges())
                or any(graphs[0].w_blue(t) != graphs[1].w_blue(t)
                       for t in graphs[0].tasks()))

    def test_names_are_indexed(self):
        graphs = small_rand_set(n_graphs=3)
        assert [g.name for g in graphs] == [f"small_rand[{k}]" for k in range(3)]


class TestHugeRandSet:
    def test_small_override_shape(self):
        # The builder itself at a CI-friendly size.
        graphs = huge_rand_set(n_graphs=2, size=60)
        assert [g.name for g in graphs] == ["huge_rand[0]", "huge_rand[1]"]
        assert all(g.n_tasks == 60 for g in graphs)
        for g in graphs:
            for t in g.tasks():
                assert 1 <= g.w_blue(t) <= 100

    def test_deterministic_by_seed(self):
        a = huge_rand_set(n_graphs=2, size=40, seed=3)
        b = huge_rand_set(n_graphs=2, size=40, seed=3)
        for ga, gb in zip(a, b):
            assert list(ga.edges()) == list(gb.edges())

    @pytest.mark.slow
    def test_default_scale(self):
        graphs = huge_rand_set()
        assert len(graphs) == 5
        assert all(g.n_tasks == 500 for g in graphs)
        for g in graphs:
            g.validate()


class TestLinalgSets:
    def test_lu_set(self):
        graphs = lu_set((2, 3))
        assert len(graphs) == 2
        assert graphs[0].name == "lu2x2"

    def test_cholesky_set(self):
        graphs = cholesky_set((2, 3))
        assert graphs[1].name == "cholesky3x3"
