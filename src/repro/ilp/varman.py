"""Variable manager and row builder for the ILP (§4).

Thin bookkeeping layer between the model construction (:mod:`repro.ilp.model`)
and ``scipy.optimize.milp``: named variables with bounds and integrality,
and ``<=`` constraint rows collected as sparse triplets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np
from scipy import sparse

Name = Hashable


@dataclass
class VariableManager:
    """Named LP/MILP variables with bounds and integrality flags."""

    names: list[Name] = field(default_factory=list)
    index: dict[Name, int] = field(default_factory=dict)
    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    integer: list[bool] = field(default_factory=list)

    def add(self, name: Name, lb: float = 0.0, ub: float = math.inf,
            integer: bool = False) -> int:
        """Register a variable; returns its column index."""
        if name in self.index:
            raise ValueError(f"duplicate variable {name!r}")
        col = len(self.names)
        self.index[name] = col
        self.names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.integer.append(integer)
        return col

    def binary(self, name: Name) -> int:
        return self.add(name, 0.0, 1.0, integer=True)

    def __getitem__(self, name: Name) -> int:
        return self.index[name]

    def __contains__(self, name: Name) -> bool:
        return name in self.index

    def __len__(self) -> int:
        return len(self.names)

    def fix(self, name: Name, value: float) -> None:
        """Pin a variable to a constant (presolve fixing)."""
        col = self.index[name]
        self.lb[col] = value
        self.ub[col] = value

    def is_fixed(self, name: Name) -> bool:
        col = self.index[name]
        return self.lb[col] == self.ub[col]

    def fixed_value(self, name: Name) -> float:
        col = self.index[name]
        if self.lb[col] != self.ub[col]:
            raise ValueError(f"variable {name!r} is not fixed")
        return self.lb[col]

    def integer_columns(self) -> list[int]:
        return [k for k, flag in enumerate(self.integer) if flag]


class RowBuilder:
    """Collect ``sum(coef * var) <= rhs`` rows as sparse triplets."""

    def __init__(self, variables: VariableManager) -> None:
        self.vars = variables
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._data: list[float] = []
        self._rhs: list[float] = []
        self._labels: list[str] = []

    @property
    def n_rows(self) -> int:
        return len(self._rhs)

    def le(self, coeffs: Mapping[Name, float], rhs: float, label: str = "") -> None:
        """Add one ``<=`` row; zero coefficients are dropped."""
        row = len(self._rhs)
        for name, coef in coeffs.items():
            if coef == 0.0:
                continue
            self._rows.append(row)
            self._cols.append(self.vars[name])
            self._data.append(float(coef))
        self._rhs.append(float(rhs))
        self._labels.append(label)

    def ge(self, coeffs: Mapping[Name, float], rhs: float, label: str = "") -> None:
        """Add ``sum(coef * var) >= rhs`` (stored negated)."""
        self.le({k: -v for k, v in coeffs.items()}, -rhs, label)

    def eq(self, coeffs: Mapping[Name, float], rhs: float, label: str = "") -> None:
        """Add an equality as two inequalities."""
        self.le(coeffs, rhs, label + "<=")
        self.ge(coeffs, rhs, label + ">=")

    def matrix(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        a = sparse.coo_matrix(
            (self._data, (self._rows, self._cols)),
            shape=(len(self._rhs), len(self.vars)),
        ).tocsr()
        return a, np.array(self._rhs)

    def labels(self) -> list[str]:
        return list(self._labels)
