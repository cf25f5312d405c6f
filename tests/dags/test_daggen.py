"""DAGGEN-style generator: structure, determinism, parameter semantics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.graph import TaskGraph
from repro.dags.daggen import (
    assign_uniform_weights,
    daggen,
    daggen_layers,
    random_dag,
)


class TestLayers:
    def test_layer_sizes_sum_to_size(self):
        for seed in range(5):
            layers = daggen_layers(100, 0.3, rng=seed)
            assert sum(layers) == 100

    def test_layer_cap_respects_width(self):
        n, w = 100, 0.3
        cap = max(1, round(2 * w * math.sqrt(n)))
        for seed in range(5):
            assert max(daggen_layers(n, w, rng=seed)) <= cap

    def test_tiny_width_gives_chain(self):
        layers = daggen_layers(10, 0.01, rng=0)
        assert layers == [1] * 10

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            daggen_layers(0, 0.5)
        with pytest.raises(ValueError):
            daggen_layers(10, 0.0)
        with pytest.raises(ValueError):
            daggen_layers(10, 1.5)


class TestStructure:
    def test_size_honoured(self):
        g = daggen(size=47, rng=0)
        assert g.n_tasks == 47

    def test_acyclic_and_layered(self):
        g = daggen(size=60, rng=1)
        g.validate()
        for u, v in g.edges():
            assert u < v  # tasks are numbered in level order

    def test_every_non_root_has_a_parent(self):
        g = daggen(size=60, width=0.4, density=0.5, jumps=3, rng=2)
        layers = daggen_layers(60, 0.4, rng=2)
        first_layer = set(range(layers[0]))
        for t in g.tasks():
            if t not in first_layer:
                assert g.in_degree(t) >= 1

    def test_deterministic_for_seed(self):
        a = daggen(size=40, rng=123)
        b = daggen(size=40, rng=123)
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = daggen(size=40, rng=1)
        b = daggen(size=40, rng=2)
        assert list(a.edges()) != list(b.edges())

    def test_zero_density_gives_tree_like_graph(self):
        g = daggen(size=30, density=0.0, jumps=1, rng=0)
        # density 0: every non-root draws exactly one parent, no jumps.
        layers = daggen_layers(30, 0.3, rng=0)
        assert g.n_edges == 30 - layers[0]

    def test_invalid_jumps(self):
        with pytest.raises(ValueError):
            daggen(size=10, jumps=0)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            daggen(size=10, density=-0.1)

    @pytest.mark.parametrize("build", [daggen, random_dag])
    @pytest.mark.parametrize("kwargs, name", [
        (dict(density=math.nan), "density"),
        (dict(density=math.inf), "density"),
        (dict(density=-math.inf), "density"),
        (dict(size=2.5), "size"),
        (dict(size=3.0), "size"),
        (dict(size="12"), "size"),
        (dict(jumps=2.5), "jumps"),
        (dict(jumps=0), "jumps"),
        (dict(width=math.nan), "width"),
    ])
    def test_bad_parameter_raises_before_any_draw(self, build, kwargs, name):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match=name):
            build(rng=gen, **kwargs)
        assert gen.bit_generator.state == before

    def test_numpy_integer_parameters_are_accepted(self):
        a = random_dag(size=np.int64(40), jumps=np.int32(3), rng=9)
        b = random_dag(size=40, jumps=3, rng=9)
        assert list(a.edge_items()) == list(b.edge_items())
        assert a.name == b.name


class TestWeights:
    def test_ranges_inclusive(self):
        g = random_dag(size=60, rng=0, w_range=(1, 20), c_range=(1, 10),
                       f_range=(1, 10))
        for t in g.tasks():
            assert 1 <= g.w_blue(t) <= 20
            assert 1 <= g.w_red(t) <= 20
        for u, v in g.edges():
            assert 1 <= g.comm(u, v) <= 10
            assert 1 <= g.size(u, v) <= 10

    def test_weights_are_integral(self):
        g = random_dag(size=30, rng=3)
        for t in g.tasks():
            assert g.w_blue(t).is_integer()
        for u, v in g.edges():
            assert g.size(u, v).is_integer()

    def test_assign_does_not_mutate_input(self):
        skeleton = daggen(size=20, rng=0)
        assign_uniform_weights(skeleton, rng=1)
        assert all(skeleton.w_blue(t) == 0 for t in skeleton.tasks())

    def test_structure_preserved(self):
        skeleton = daggen(size=20, rng=0)
        g = assign_uniform_weights(skeleton, rng=1)
        assert list(g.edges()) == list(skeleton.edges())

    def test_keeps_the_memory_classes(self):
        skeleton = TaskGraph("k3", n_classes=3)
        skeleton.add_tasks((t, (0.0, 0.0, 0.0)) for t in range(4))
        skeleton.add_dependencies([(0, 1, 0.0, 0.0), (0, 2, 0.0, 0.0),
                                   (2, 3, 0.0, 0.0)])
        g = assign_uniform_weights(skeleton, rng=3, w_range=(1, 50))
        assert g.n_classes == 3
        assert list(g.edges()) == list(skeleton.edges())
        # one time per class, in class order, task after task
        gen = np.random.default_rng(3)
        for t in skeleton.topological_order():
            assert g.times(t) == tuple(float(gen.integers(1, 51))
                                       for _ in range(3))
        for u, v in skeleton.edges():
            assert g.size(u, v) == float(gen.integers(1, 11))
            assert g.comm(u, v) == float(gen.integers(1, 11))

    def test_full_pipeline_deterministic(self):
        a = random_dag(size=30, rng=7)
        b = random_dag(size=30, rng=7)
        assert list(a.edges()) == list(b.edges())
        assert all(a.w_blue(t) == b.w_blue(t) for t in a.tasks())


class TestNumpyStream:
    """The weights are drawn by one vector call each; that leaves every
    graph as it was only if numpy's bounded integer draws consume the
    bit stream exactly as the same scalar calls in order do."""

    RANGES = [
        # mixed ranges, as the (size, comm) pairs interleave them
        [(1, 11), (1, 101)] * 40,
        # degenerate ranges (one value: no bits drawn) between others
        [(1, 21), (5, 6), (0, 1), (3, 9), (7, 8)] * 30,
        # ranges above 2**32 take the 64-bit path
        [(0, 2**33), (1, 11), (2**32, 2**32 + 3), (0, 2**40), (1, 2)] * 30,
        # a range of exactly 2**32 values
        [(0, 2**32), (1, 3)] * 30,
    ]

    @pytest.mark.parametrize("ranges", RANGES)
    @pytest.mark.parametrize("seed", [0, 1, 2014, 2**31 - 1])
    def test_broadcast_draw_equals_scalar_calls(self, ranges, seed):
        lows, highs = zip(*ranges)
        vector = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        drawn = vector.integers(lows, highs).tolist()
        assert drawn == [int(scalar.integers(lo, hi)) for lo, hi in ranges]
        assert vector.random() == scalar.random()
        assert vector.integers(0, 7) == scalar.integers(0, 7)

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_sized_draw_equals_scalar_calls(self, seed):
        vector = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        drawn = vector.integers(1, 21, size=(50, 3)).tolist()
        assert drawn == [[int(scalar.integers(1, 21)) for _ in range(3)]
                         for _ in range(50)]
        assert vector.random() == scalar.random()

    def test_pair_broadcast_equals_interleaved_calls(self):
        vector = np.random.default_rng(17)
        scalar = np.random.default_rng(17)
        pairs = vector.integers((10, 2), (41, 8), size=(60, 2)).tolist()
        assert pairs == [[int(scalar.integers(10, 41)),
                          int(scalar.integers(2, 8))] for _ in range(60)]
        assert vector.random() == scalar.random()


@given(st.integers(min_value=1, max_value=60),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_generator_always_produces_valid_dags(size, width, density, jumps, seed):
    g = daggen(size=size, width=width, density=density, jumps=jumps, rng=seed)
    assert g.n_tasks == size
    g.validate()
    order = {t: k for k, t in enumerate(g.topological_order())}
    for u, v in g.edges():
        assert order[u] < order[v]
