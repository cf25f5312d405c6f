"""Figure 10 — SmallRandSet: normalised makespan and success rate vs
relative memory, heuristics vs the ILP optimum (on the tiny set).

Expected shape (paper §6.2.1): both heuristics near-optimal with ample
memory; success collapses somewhere around alpha ~ 0.35-0.75 while the
optimal schedules keep existing below the heuristics' failure point.
"""

import pytest

from repro.dags.datasets import small_rand_set
from repro.experiments.figures import RAND_PLATFORM, fig10
from repro.experiments.sweep import normalized_sweep
from repro.scheduling.memheft import memheft


@pytest.mark.figure
def test_fig10_regenerates(show, scale, benchmark):
    result = benchmark.pedantic(fig10, args=(scale,), rounds=1, iterations=1)
    show(result)
    heur = result.data["heuristics"]
    # Shape assertions (paper Fig 10): full success at alpha = 1 ...
    for algo in ("memheft", "memminmin"):
        assert heur.cell(1.0, algo).success_rate == 1.0
    # ... and success rates monotone in alpha.
    for algo in heur.algorithms:
        rates = [c.success_rate for c in heur.series(algo)]
        assert rates == sorted(rates)
    # The optimal series never succeeds less often than the heuristics.
    opt = result.data["optimal"]
    for alpha in opt.alphas:
        o = opt.cell(alpha, "optimal").n_success
        assert o >= opt.cell(alpha, "memheft").n_success
        assert o >= opt.cell(alpha, "memminmin").n_success


def test_bench_memheft_on_small_rand(benchmark, scale):
    graphs = small_rand_set(scale.small_n_graphs, scale.small_size)

    def run():
        return [memheft(g, RAND_PLATFORM) for g in graphs]

    schedules = benchmark(run)
    assert len(schedules) == len(graphs)


def test_bench_normalized_sweep_one_alpha(benchmark, scale):
    graphs = small_rand_set(min(scale.small_n_graphs, 6), scale.small_size)
    result = benchmark(normalized_sweep, graphs, RAND_PLATFORM,
                       ("memheft", "memminmin"), (0.6,))
    assert result.cells
