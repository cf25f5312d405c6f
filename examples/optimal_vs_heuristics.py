#!/usr/bin/env python
"""How far from optimal are the heuristics?  (the paper's Figure 10 question)

For a handful of tiny random DAGs, solve the exact ILP of §4 with HiGHS
(scipy's ``milp``, standing in for the paper's CPLEX) and compare against
MemHEFT / MemMinMin and the combinatorial lower bound, across shrinking
memory budgets.  The run takes a few seconds.

Run:  python examples/optimal_vs_heuristics.py
"""

from repro import InfeasibleScheduleError, Platform, memheft, memminmin
from repro.core.bounds import lower_bound
from repro.dags import tiny_rand_set
from repro.experiments import reference_run
from repro.ilp import solve_ilp

platform = Platform(n_blue=1, n_red=1)
print(f"{'graph':<14} {'alpha':>5} {'LB':>6} {'ILP':>8} "
      f"{'MemHEFT':>8} {'MemMinMin':>10}")
print("-" * 56)

for graph in tiny_rand_set(n_graphs=3, size=6):
    ref = reference_run(graph, platform)
    lb = lower_bound(graph, platform)
    for alpha in (1.0, 0.7, 0.5, 0.35):
        bounded = platform.with_uniform_bound(alpha * ref.ref_memory)
        sol = solve_ilp(graph, bounded, node_limit=30000, time_limit=60)
        cells = []
        for algo in (memheft, memminmin):
            try:
                cells.append(f"{algo(graph, bounded).makespan:g}")
            except InfeasibleScheduleError:
                cells.append("--")
        ilp_txt = f"{sol.makespan:g}" if sol.makespan is not None else sol.status
        print(f"{graph.name:<14} {alpha:>5.2f} {lb:>6g} {ilp_txt:>8} "
              f"{cells[0]:>8} {cells[1]:>10}")
    print()

print("ILP <= heuristics always; the gap opens as memory tightens.")
