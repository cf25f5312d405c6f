"""Unit tests for the dual-memory platform model."""

import math

import pytest

from repro import MEMORIES, Memory, Platform


class TestMemory:
    def test_other_is_involutive(self):
        assert Memory.BLUE.other() is Memory.RED
        assert Memory.RED.other() is Memory.BLUE
        for m in MEMORIES:
            assert m.other().other() is m

    def test_canonical_order(self):
        assert MEMORIES == (Memory.BLUE, Memory.RED)

    def test_value_strings(self):
        assert Memory.BLUE.value == "blue"
        assert Memory.RED.value == "red"


class TestPlatformIndexing:
    def test_blue_processors_come_first(self):
        p = Platform(n_blue=3, n_red=2)
        assert list(p.procs(Memory.BLUE)) == [0, 1, 2]
        assert list(p.procs(Memory.RED)) == [3, 4]

    def test_memory_of_every_processor(self):
        p = Platform(n_blue=2, n_red=3)
        assert [p.memory_of(k) for k in range(p.n_procs)] == [
            Memory.BLUE, Memory.BLUE, Memory.RED, Memory.RED, Memory.RED,
        ]

    def test_memory_of_out_of_range(self):
        p = Platform(1, 1)
        with pytest.raises(ValueError):
            p.memory_of(2)
        with pytest.raises(ValueError):
            p.memory_of(-1)

    def test_n_procs_of(self):
        p = Platform(n_blue=4, n_red=1)
        assert p.n_procs_of(Memory.BLUE) == 4
        assert p.n_procs_of(Memory.RED) == 1
        assert p.n_procs == 5

    def test_empty_resource_class_allowed(self):
        p = Platform(n_blue=0, n_red=2)
        assert list(p.procs(Memory.BLUE)) == []
        assert p.memory_of(0) is Memory.RED


class TestPlatformCapacities:
    def test_default_is_unbounded(self):
        p = Platform(1, 1)
        assert math.isinf(p.capacity(Memory.BLUE))
        assert math.isinf(p.capacity(Memory.RED))
        assert not p.is_memory_bounded

    def test_with_bounds(self):
        p = Platform(1, 1).with_bounds(10, 20)
        assert p.capacity(Memory.BLUE) == 10
        assert p.capacity(Memory.RED) == 20
        assert p.is_memory_bounded

    def test_with_uniform_bound(self):
        p = Platform(2, 2).with_uniform_bound(7)
        assert p.mem_blue == p.mem_red == 7

    def test_unbounded_round_trip(self):
        p = Platform(2, 1, 5, 5).unbounded()
        assert not p.is_memory_bounded
        assert p.n_blue == 2 and p.n_red == 1

    def test_one_sided_bound_counts_as_bounded(self):
        assert Platform(1, 1, mem_blue=4).is_memory_bounded


class TestPlatformValidation:
    def test_needs_a_processor(self):
        with pytest.raises(ValueError):
            Platform(0, 0)

    def test_negative_processors_rejected(self):
        with pytest.raises(ValueError):
            Platform(-1, 2)

    def test_negative_memory_rejected(self):
        with pytest.raises(ValueError):
            Platform(1, 1, mem_blue=-1)

    @pytest.mark.parametrize("args", [
        (1, 1, math.nan, 500.0),
        (1, 1, 500.0, math.nan),
        ([1, 1, 1], [10.0, math.nan, math.inf]),
    ])
    def test_nan_capacity_rejected(self, args):
        with pytest.raises(ValueError, match="capacities"):
            Platform(*args)

    @pytest.mark.parametrize("args", [
        (1.5, 1), (1, 0.5), ([2, 1.5], [10.0, 10.0]),
        (math.nan, 1), (math.inf, 1), ("1", 1),
    ])
    def test_non_integral_count_rejected(self, args):
        with pytest.raises(ValueError, match="processor counts"):
            Platform(*args)

    @pytest.mark.parametrize("args", [
        (1, 1, 10 ** 400, 5), (1, 1, 5, 10 ** 400), ([1, 1], [5, 10 ** 400]),
    ])
    def test_capacity_too_large_for_a_float_rejected(self, args):
        with pytest.raises(ValueError, match="memory capacity too large"):
            Platform(*args)

    def test_any_processor_count_accepted(self):
        from repro.io.json_io import MAX_PROCESSORS
        assert Platform(MAX_PROCESSORS + 1, 1).n_procs == MAX_PROCESSORS + 2

    def test_integral_float_count_accepted(self):
        assert Platform(2.0, 1.0) == Platform(2, 1)
        assert Platform([2.0, 1], [5.0, 5.0]).proc_counts == (2, 1)

    def test_frozen(self):
        p = Platform(1, 1)
        with pytest.raises(AttributeError):
            p.n_blue = 5


class TestPlatformSpeeds:
    def test_default_is_homogeneous(self):
        plat = Platform(2, 1)
        assert plat.speeds == (1.0, 1.0, 1.0)
        assert not plat.is_heterogeneous
        assert plat.uniform_classes == (True, True)
        assert plat.max_class_speeds == (1.0, 1.0)

    def test_speeds_accessors(self):
        plat = Platform(2, 1, 40.0, 40.0, speeds=[1.0, 0.5, 2.0])
        assert plat.is_heterogeneous
        assert plat.speed(1) == 0.5
        assert plat.class_speeds(0) == (1.0, 0.5)
        assert plat.class_speeds(1) == (2.0,)
        assert plat.max_class_speed(0) == 1.0
        assert not plat.is_uniform_class(0)
        assert plat.is_uniform_class(1)   # single proc => uniform
        assert plat.duration(10.0, 2) == 5.0

    def test_generic_constructor_takes_speeds(self):
        plat = Platform([1, 1, 2], [1.0, 2.0, 3.0],
                        speeds=[2.0, 1.0, 0.5, 0.5])
        assert plat.speeds == (2.0, 1.0, 0.5, 0.5)
        assert plat.uniform_classes == (True, True, True)
        assert plat.max_class_speeds == (2.0, 1.0, 0.5)

    def test_speeds_length_validated(self):
        with pytest.raises(ValueError):
            Platform(2, 1, speeds=[1.0, 1.0])

    def test_speeds_values_validated(self):
        for bad in ([0.0, 1.0], [-1.0, 1.0], [math.inf, 1.0],
                    [math.nan, 1.0], [1.0, 10 ** 400]):
            with pytest.raises(ValueError, match="speeds must be finite"):
                Platform(1, 1, speeds=bad)

    def test_equality_and_hash_include_speeds(self):
        a = Platform(1, 1, speeds=[1.0, 2.0])
        b = Platform(1, 1, speeds=[1.0, 2.0])
        c = Platform(1, 1)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_with_capacities_preserves_speeds(self):
        plat = Platform(1, 1, speeds=[1.0, 2.0])
        assert plat.with_uniform_bound(5.0).speeds == (1.0, 2.0)
        assert plat.unbounded().speeds == (1.0, 2.0)
        assert plat.with_bounds(1.0, 2.0).speeds == (1.0, 2.0)

    def test_with_speeds_resets_and_replaces(self):
        plat = Platform(1, 1, 3.0, 4.0, speeds=[1.0, 2.0])
        reset = plat.with_speeds(None)
        assert not reset.is_heterogeneous
        assert reset.capacities == plat.capacities
        assert plat.with_speeds([0.5, 0.5]).speeds == (0.5, 0.5)

    def test_pickle_roundtrip_keeps_speeds(self):
        import pickle
        plat = Platform([2, 1], [10.0, math.inf], speeds=[1.0, 0.5, 2.0])
        assert pickle.loads(pickle.dumps(plat)) == plat
