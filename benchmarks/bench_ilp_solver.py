"""Solver micro-benchmarks: the ILP (HiGHS in place of CPLEX) on the
paper's worked example."""

import pytest

from repro.core.platform import Platform
from repro.dags.toy import dex
from repro.ilp import build_model, solve_model


def test_bench_ilp_model_build(benchmark):
    model = benchmark(build_model, dex(), Platform(1, 1, 5, 5))
    assert model.n_constraints > 0


def test_bench_ilp_solve_dex_m5(benchmark):
    def run():
        model = build_model(dex(), Platform(1, 1, 5, 5))
        return solve_model(model, time_limit=120)

    sol = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sol.status == "optimal"
    assert sol.makespan == pytest.approx(6.0, abs=1e-4)

