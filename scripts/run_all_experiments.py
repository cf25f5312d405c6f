#!/usr/bin/env python
"""Regenerate every paper table/figure and write the reports to results/.

Usage: python scripts/run_all_experiments.py [--jobs N] [scale] [experiment ...]

``scale`` is ci / default / paper (default: default).  With no experiment
names, runs everything including the two ablations.  ``--jobs N`` shards
every sweep grid over N worker processes (0 = one per CPU); results are
identical for any N.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro._util import atomic_write_text
from repro.dags.datasets import small_rand_set
from repro.experiments.ablation import comm_policy_ablation, tiebreak_ablation
from repro.experiments.config import get_scale
from repro.experiments.figures import EXPERIMENTS, RAND_PLATFORM
from repro.experiments.report import render_table
from repro.experiments.sweep import default_alphas


def run_ablations(scale, jobs: int = 1) -> str:
    graphs = small_rand_set(min(scale.small_n_graphs, 10), scale.small_size)
    rows = comm_policy_ablation(graphs, RAND_PLATFORM,
                                default_alphas(scale.n_alphas), jobs=jobs)
    parts = [render_table(
        ["alpha", "late:success", "eager:success", "late:norm", "eager:norm"],
        [[round(r.alpha, 3), r.late_success, r.eager_success,
          None if r.late_mean_norm is None else round(r.late_mean_norm, 3),
          None if r.eager_mean_norm is None else round(r.eager_mean_norm, 3)]
         for r in rows],
        title="MemHEFT transfer-placement ablation (late = paper policy)")]
    tb = tiebreak_ablation(graphs[:6], RAND_PLATFORM, n_seeds=5, jobs=jobs)
    parts.append(render_table(
        ["graph", "deterministic", "seeded mean", "min", "max"],
        [[r.graph_name, r.deterministic, round(r.seeded_mean, 1),
          r.seeded_min, r.seeded_max] for r in tb],
        title="MemHEFT rank tie-break spread"))
    return "\n\n".join(parts)


def main() -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="scales: ci, default, paper | experiments: "
               + ", ".join(sorted(EXPERIMENTS)) + ", ablations")
    parser.add_argument("scale", nargs="?", default="default",
                        help="experiment scale preset (default: default)")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: everything)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="shard every sweep grid over N worker "
                             "processes (0 = one per CPU)")
    args = parser.parse_args()
    jobs = args.jobs
    wanted = args.experiments or list(EXPERIMENTS) + ["ablations"]
    scale = get_scale(args.scale)
    out_dir = Path(__file__).resolve().parent.parent / "results" / scale.name
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in wanted:
        t0 = time.perf_counter()
        if name == "ablations":
            text = run_ablations(scale, jobs=jobs)
        else:
            text = str(EXPERIMENTS[name](scale, jobs=jobs))
        dt = time.perf_counter() - t0
        path = out_dir / f"{name}.txt"
        atomic_write_text(path, text
                          + f"\n\n[generated at scale={scale.name} "
                            f"in {dt:.1f}s]\n")
        print(f"[{dt:7.1f}s] {name} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
