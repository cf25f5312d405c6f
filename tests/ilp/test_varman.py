"""Variable manager / row builder plumbing."""

import pytest

from repro.ilp.varman import RowBuilder, VariableManager


class TestVariableManager:
    def test_add_and_lookup(self):
        v = VariableManager()
        a = v.add("x", 0, 5)
        b = v.binary("y")
        assert v["x"] == a and v["y"] == b
        assert "x" in v and "z" not in v
        assert len(v) == 2
        assert v.integer == [False, True]

    def test_duplicate_rejected(self):
        v = VariableManager()
        v.add("x")
        with pytest.raises(ValueError, match="duplicate"):
            v.add("x")

    def test_fix_and_fixed_value(self):
        v = VariableManager()
        v.binary("b")
        assert not v.is_fixed("b")
        v.fix("b", 1.0)
        assert v.is_fixed("b")
        assert v.fixed_value("b") == 1.0

    def test_fixed_value_requires_fixed(self):
        v = VariableManager()
        v.add("x", 0, 2)
        with pytest.raises(ValueError):
            v.fixed_value("x")

    def test_integer_columns(self):
        v = VariableManager()
        v.add("x")
        v.binary("y")
        v.binary("z")
        assert v.integer_columns() == [1, 2]


class TestRowBuilder:
    def test_le_ge_eq(self):
        v = VariableManager()
        v.add("x")
        v.add("y")
        rows = RowBuilder(v)
        rows.le({"x": 1, "y": 2}, 5, "r1")
        rows.ge({"x": 1}, 1, "r2")
        rows.eq({"y": 1}, 3, "r3")
        a, b = rows.matrix()
        assert a.shape == (4, 2)  # eq expands to two rows
        dense = a.toarray()
        assert dense[0].tolist() == [1, 2] and b[0] == 5
        assert dense[1].tolist() == [-1, 0] and b[1] == -1
        assert rows.n_rows == 4
        assert rows.labels()[0] == "r1"

    def test_zero_coefficients_dropped(self):
        v = VariableManager()
        v.add("x")
        rows = RowBuilder(v)
        rows.le({"x": 0.0}, 1)
        a, _ = rows.matrix()
        assert a.nnz == 0
