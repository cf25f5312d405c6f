"""Ablation — late vs eager transfer placement (paper §5.1).

The paper schedules a task's incoming transfers *as late as possible*
(Algorithms 1-2).  This bench quantifies the choice: eager transfers hold
destination memory longer, so the late policy should never schedule fewer
graphs and typically survives tighter bounds.
"""

import pytest

from repro.dags.datasets import small_rand_set
from repro.experiments.ablation import comm_policy_ablation
from repro.experiments.figures import RAND_PLATFORM
from repro.experiments.report import render_table
from repro.experiments.sweep import default_alphas
from repro.scheduling.memheft import memheft


@pytest.mark.figure
def test_comm_policy_ablation(show, scale, benchmark):
    graphs = small_rand_set(scale.small_n_graphs, scale.small_size)
    rows = benchmark.pedantic(
        comm_policy_ablation,
        args=(graphs, RAND_PLATFORM, default_alphas(scale.n_alphas)),
        rounds=1, iterations=1)
    table = render_table(
        ["alpha", "late:success", "eager:success", "late:norm", "eager:norm"],
        [[round(r.alpha, 3), r.late_success, r.eager_success,
          None if r.late_mean_norm is None else round(r.late_mean_norm, 3),
          None if r.eager_mean_norm is None else round(r.eager_mean_norm, 3)]
         for r in rows],
        title="MemHEFT transfer-placement ablation")
    print("\n" + table)
    for r in rows:
        assert r.late_success >= r.eager_success


def test_bench_eager_policy_overhead(benchmark, scale):
    graph = small_rand_set(1, scale.small_size)[0]
    schedule = benchmark(memheft, graph, RAND_PLATFORM, comm_policy="eager")
    assert len(schedule) == graph.n_tasks
