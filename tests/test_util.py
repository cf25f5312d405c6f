"""The shared helper module."""

import math

import pytest

from repro._util import HAS_NUMPY, as_rng, fmt_num

try:
    import numpy as np
except ModuleNotFoundError:
    np = None


@pytest.mark.skipif(not HAS_NUMPY, reason="as_rng coerces numpy Generators")
class TestRngCoercion:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_seed_reproducible(self):
        assert as_rng(42).integers(0, 1000) == as_rng(42).integers(0, 1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_rng(gen) is gen


class TestFmtNum:
    def test_integral_floats_render_bare(self):
        assert fmt_num(6.0) == "6"

    def test_fractional_rendering(self):
        assert fmt_num(1.25) == "1.25"

    def test_inf(self):
        assert fmt_num(math.inf) == "inf"

    def test_long_fraction_truncated(self):
        assert len(fmt_num(1 / 3)) <= 8
