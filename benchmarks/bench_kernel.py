"""EST kernel: scalar batch entry point vs the seed kernel, and DAG-scoped
candidate invalidation.

Script-mode benchmark for :mod:`repro.scheduling.kernel` and the
candidate selectors, emitted into a machine-readable ``BENCH_kernel.json``
(schema in ``benchmarks/README.md``; ``scripts/check_speedup.py --kernel``
checks that every compared pair stayed identical)::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--json PATH] \
        [--n N] [--rounds R]

Two sections:

* **vs_seed** — on the frontier workload (a two-layer graph whose
  scheduled producer half feeds an ``n/2``-wide ready frontier, the
  candidate storm a selector faces after a profile-touching commit), the
  kernel's ``evaluate_class_batch`` against the *seed* incremental kernel
  (frozen-dataclass breakdowns, ``(task, class)`` tuple-key fit memo,
  per-evaluation ``min()`` over class processors — reproduced here by
  :class:`SeedKernel` the way ``bench_scaling.py`` reproduces
  ``LegacySuffixMaxProfile``).
* **invalidation** — DAG-scoped candidate invalidation vs the coarse
  per-class dirty rule: full kernel re-evaluations counted by
  ``SelectorStats`` on wide DAGs (>= 2x fewer on unbounded profiles);
  the bounded row is reported too, where every commit really does touch
  the profile and the ratio is honestly ~1.0.

Every compared pair is asserted bit-identical (breakdown-for-breakdown
or placement-for-placement) before a single timing is recorded.
Timings are interleaved best-of-``--rounds`` minima, so machine noise
hits both sides alike.
"""

import argparse
import math
import os
import platform as platform_mod
import random
import sys
import time
from dataclasses import dataclass

from repro.core.graph import TaskGraph
from repro.core.platform import Platform
from repro.dags.daggen import random_dag
from repro.scheduling.candidates import MinEFTSelector, SufferageSelector
from repro.scheduling.heft import heft
from repro.scheduling.kernel import resolve_backend
from repro.scheduling.state import SchedulerState

#: Heterogeneous per-processor speeds (seeded, reproducible).
def _speeds(n_procs: int, seed: int = 7) -> list:
    rnd = random.Random(seed)
    return [round(rnd.uniform(0.5, 4.0), 2) for _ in range(n_procs)]


# ----------------------------------------------------------------------
# the frontier workload
# ----------------------------------------------------------------------
def two_layer(n: int, rng: int = 0) -> TaskGraph:
    """``n/2`` producers feeding an ``n/2``-wide consumer frontier."""
    rnd = random.Random(rng)
    g = TaskGraph(f"frontier{n}")
    half = n // 2
    for t in range(n):
        g.add_task(t, w_blue=rnd.uniform(1, 100), w_red=rnd.uniform(1, 100))
    for child in range(half, n):
        for parent in rnd.sample(range(half), k=rnd.randint(1, 3)):
            g.add_dependency(parent, child, size=rnd.uniform(1, 50),
                             comm=rnd.uniform(1, 50))
    return g


#: (label, (n_blue, n_red), heterogeneous?, bounded?)
CONFIGS = (
    ("uniform-2+2-bounded", (2, 2), False, True),
    ("hetero-6+6-bounded", (6, 6), True, True),
    ("uniform-2+2-unbounded", (2, 2), False, False),
)


def _make_platform(procs, hetero, bounded, graph):
    nb, nr = procs
    speeds = _speeds(nb + nr) if hetero else None
    if not bounded:
        return Platform(nb, nr, speeds=speeds)
    base = heft(graph, Platform(nb, nr))
    cap = 1.1 * max(base.meta["peak_blue"], base.meta["peak_red"])
    return Platform(nb, nr, cap, cap, speeds=speeds)


def _frontier_state(graph, platform):
    """Schedule the producer half; return (state, ready frontier)."""
    state = SchedulerState(graph, platform)
    topo = {t: i for i, t in enumerate(graph.topological_order())}
    ready = sorted(state.ready_roots(), key=topo.__getitem__)
    half = graph.n_tasks // 2
    while any(t < half for t in ready):
        bd = None
        for t in ready:
            if t >= half:
                continue
            bd = state.best_est(t)
            if bd is not None:
                break
        if bd is None:
            break
        state.commit(bd)
        ready = sorted([t for t in ready if t != bd.task]
                       + state.pop_newly_ready(), key=topo.__getitem__)
    return state, ready


def _clear_memos(state):
    """Reset the ``(task, class)`` fit memos so every round re-pays the
    full candidate storm (frontier unchanged, caches cold — the
    post-commit worst case).  The precedence-parts memo stays, the same
    way it survives commits in production."""
    for slot in state._fit:
        slot[0] = -1
        slot[1].clear()


# ----------------------------------------------------------------------
# the seed kernel, reproduced
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeedBreakdown:
    """The seed's frozen-dataclass EST breakdown (construction cost and
    all), field-compatible with :class:`repro.scheduling.kernel.ESTBreakdown`."""

    task: object
    memory: object
    resource: float
    precedence: float
    task_mem: float
    comm_mem: float
    cmax: float
    est: float
    eft: float
    comm_fit: float = 0.0
    duration: float = math.inf
    proc: int = -1


class SeedKernel:
    """The seed repo's incremental EST kernel, verbatim: per-(task, class)
    evaluation with a ``(task, idx)`` tuple-key fit memo, a per-evaluation
    ``min()`` generator over the class processors, the Python
    finish-choice loop for heterogeneous classes, and frozen-dataclass
    breakdown construction.  Shares the state's ``_precedence_parts``
    memo (which the seed had too) so the comparison isolates the kernel."""

    def __init__(self, state):
        self._fit = {}
        self._uniform = [len(set(state.platform.class_speeds(m))) <= 1
                         for m in state.memories]

    def evaluate(self, state, task, memory):
        platform = state.platform
        if not state.is_ready(task) or platform.n_procs_of(memory) == 0:
            inf = math.inf
            return SeedBreakdown(task, memory, inf, inf, inf, inf, 0.0,
                                 inf, inf)
        idx = memory.index
        precedence, cmax, cross_in, need_task = \
            state._precedence_parts(task)[idx]
        profile = state.mem[memory]
        key = (task, idx)
        cached = self._fit.get(key)
        if cached is not None and cached[0] == profile.version:
            task_mem, comm_fit = cached[1], cached[2]
        else:
            task_mem = profile.earliest_fit(need_task)
            comm_fit = (profile.earliest_fit(cross_in)
                        if cross_in > 0.0 or cmax > 0.0 else 0.0)
            self._fit[key] = (profile.version, task_mem, comm_fit)
        comm_mem = comm_fit + cmax if cross_in > 0.0 or cmax > 0.0 else 0.0
        w = state.graph.w(task, memory)
        avail = state.avail
        if self._uniform[idx]:
            resource = min(avail[p] for p in platform.procs(memory))
            est = max(resource, precedence, task_mem, comm_mem)
            duration = w / platform.max_class_speeds[idx]
            proc = -1
        else:
            floor = max(precedence, task_mem, comm_mem)
            speeds = platform.speeds
            proc = -1
            best_finish = math.inf
            resource = -math.inf
            duration = math.inf
            for p in platform.procs(memory):
                a = avail[p]
                dur = w / speeds[p]
                finish = (a if a > floor else floor) + dur
                if finish < best_finish or (finish == best_finish
                                            and a > resource):
                    proc, best_finish, resource, duration = p, finish, a, dur
            est = max(floor, resource)
        eft = est + duration if math.isfinite(est) else math.inf
        return SeedBreakdown(task, memory, resource, precedence, task_mem,
                             comm_mem, cmax, est, eft, comm_fit,
                             duration, proc)


_FIELDS = ("task", "resource", "precedence", "task_mem", "comm_mem", "cmax",
           "est", "eft", "comm_fit", "duration", "proc")


def _snap_bd(bd):
    return tuple(getattr(bd, f) for f in _FIELDS)


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _duel(run_a, run_b, rounds):
    """Interleaved best-of-``rounds``: (best_a, best_b) wall seconds."""
    best_a = best_b = math.inf
    for _ in range(rounds):
        best_a = min(best_a, run_a())
        best_b = min(best_b, run_b())
    return best_a, best_b


def bench_vs_seed(n, rounds):
    rows = []
    kernel = resolve_backend()
    for label, procs, hetero, bounded in CONFIGS:
        graph = two_layer(n)
        platform = _make_platform(procs, hetero, bounded, graph)
        state, ready = _frontier_state(graph, platform)
        seed = SeedKernel(state)
        memories = state.memories

        def run_seed():
            seed._fit.clear()
            _clear_memos(state)
            t0 = time.perf_counter()
            out = [[seed.evaluate(state, t, m) for t in ready]
                   for m in memories]
            return time.perf_counter() - t0, out

        def run_kernel():
            _clear_memos(state)
            t0 = time.perf_counter()
            out = [kernel.evaluate_class_batch(state, ready, m)
                   for m in memories]
            return time.perf_counter() - t0, out

        _, ref = run_seed()
        _, out = run_kernel()
        assert ([[_snap_bd(b) for b in cls] for cls in ref]
                == [[_snap_bd(b) for b in cls] for cls in out]), label
        best_seed, best = _duel(lambda: run_seed()[0],
                                lambda: run_kernel()[0], rounds)
        rows.append({"config": label, "n": n, "batch_size": len(ready),
                     "seed_ms": round(best_seed * 1e3, 3),
                     "kernel_ms": round(best * 1e3, 3),
                     "speedup": round(best_seed / best, 2),
                     "identical": True})
        print(f"  vs_seed {label}: seed={best_seed*1e3:.2f}ms "
              f"kernel={best*1e3:.2f}ms speedup={best_seed/best:.2f}x "
              f"(B={len(ready)})")
    return rows


def _drive_counting(graph, platform, selector_cls, dag_scoped):
    state = SchedulerState(graph, platform)
    order = {t: i for i, t in enumerate(graph.topological_order())}
    selector = selector_cls(state, order, dag_scoped=dag_scoped)
    for task in graph.roots():
        selector.push(task)
    while len(selector):
        best = selector.select()
        if best is None:
            break
        state.commit(best)
        selector.remove(best.task)
        for task in state.pop_newly_ready():
            selector.push(task)
    snap = {t: (p.proc, p.memory.index, p.start, p.finish)
            for t in graph.tasks() if state.is_scheduled(t)
            for p in (state.schedule.placement(t),)}
    return snap, selector.stats


def bench_invalidation(n):
    rows = []
    graph = random_dag(size=n, width=0.8, rng=1)
    for bound_label, platform in (
            ("unbounded", Platform(2, 2)),
            ("bounded-1.1x", None)):
        if platform is None:
            base = heft(graph, Platform(2, 2))
            cap = 1.1 * max(base.meta["peak_blue"], base.meta["peak_red"])
            platform = Platform(2, 2, cap, cap)
        for selector_cls in (MinEFTSelector, SufferageSelector):
            scoped_snap, scoped = _drive_counting(graph, platform,
                                                  selector_cls, True)
            coarse_snap, coarse = _drive_counting(graph, platform,
                                                  selector_cls, False)
            assert scoped_snap == coarse_snap
            ratio = (coarse.n_full_evals / scoped.n_full_evals
                     if scoped.n_full_evals else math.inf)
            rows.append({"selector": selector_cls.__name__,
                         "bound": bound_label, "n": n, "width": 0.8,
                         "scoped_full_evals": scoped.n_full_evals,
                         "coarse_full_evals": coarse.n_full_evals,
                         "scoped_refreshes": scoped.n_refreshes,
                         "eval_ratio": round(ratio, 2), "identical": True})
            print(f"  invalidation {selector_cls.__name__} {bound_label}: "
                  f"scoped={scoped.n_full_evals} coarse={coarse.n_full_evals}"
                  f" ratio={ratio:.2f}x")
    return rows


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="EST kernel benchmarks; emits BENCH_kernel.json")
    parser.add_argument("--n", type=int, default=2000,
                        help="graph size for the frontier workload "
                             "(default 2000, the acceptance point)")
    parser.add_argument("--rounds", type=int, default=12,
                        help="interleaved timing rounds (minima reported)")
    parser.add_argument("--inval-n", type=int, default=400,
                        help="graph size for the invalidation section")
    parser.add_argument("--json", default="BENCH_kernel.json",
                        help="output path ('' disables)")
    args = parser.parse_args(argv)

    report = {
        "bench": "kernel",
        "schema_version": 3,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "machine": platform_mod.platform(),
        "cpu_count": os.cpu_count(),
        "n": args.n,
    }
    print("scalar batch kernel vs seed incremental kernel "
          "(bit-identical breakdowns asserted)")
    report["vs_seed"] = bench_vs_seed(args.n, args.rounds)
    print("DAG-scoped invalidation vs coarse per-class rule "
          "(identical schedules asserted)")
    report["invalidation"] = bench_invalidation(args.inval_n)

    if args.json:
        from repro._util import atomic_write_json
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
