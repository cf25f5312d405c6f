"""Online-arrivals benchmark: per-arrival decision latency and makespan
regret of the stateful session scheduler (``repro.online``).

Replays one seeded Poisson arrival stream (the CI workload: ``--arrivals``
jobs, releases quantized to ``--tick`` so same-tick arrivals plan in one
interleaved round) through each arrival policy and emits a
machine-readable ``BENCH_online.json`` (schema in ``benchmarks/README.md``):

* **policies** — per policy (``immediate``, ``batched:Q``, ``replan:W``):
  p50/p99/max per-arrival decision latency, makespan, and regret against
  the clairvoyant offline schedule of the union DAG (release times
  relaxed — a lower bound, so the reported regret upper-bounds the true
  loss).  The CI gate (``scripts/check_speedup.py --online``) enforces
  immediate-greedy p99 <= 50 ms and regret <= 25% on this workload.
* **determinism** — the immediate-policy stream is simulated twice and
  the decision journals byte-compared.
* **identity** — the same jobs with all release times forced to zero are
  simulated online and scheduled offline on the union DAG; placements
  must agree exactly (the zero-release identity the tests pin).
* **session_length** — ``immediate`` and ``replan:16`` over the stream
  at ``--arrivals`` and at 10x that (the longer stream extends the
  shorter one): best-of-3 p50/p99 decision latency and the work per
  round (``union_tasks_per_round``: the rows of the round's union, its
  live tasks plus their placed parents; plus kept-tail replays).  The gate requires
  work per round and p50 to stay flat in session length (at most 1.25x
  and 1.5x); p99 is reported, not gated (garbage collection dominates
  it).

Run::

    PYTHONPATH=src python benchmarks/bench_online.py --json BENCH_online.json
    PYTHONPATH=src python benchmarks/bench_online.py --arrivals 40   # smoke
"""

from __future__ import annotations

import argparse
import gc
import os
import platform as platform_mod
import sys
import time

from repro.core.platform import Platform
from repro.online import (
    build_union_graph,
    poisson_trace,
    simulate,
    zero_release,
)
from repro.scheduling.kernel import resolve_backend
from repro.scheduling.registry import get_scheduler

#: The CI workload platform: two processors per class, capacities roomy
#: enough that the clairvoyant union schedule is not memory-starved (a
#: starved baseline makes regret meaninglessly negative), tight enough
#: that the memory machinery still runs bounded fits.
BENCH_PLATFORM = Platform(n_blue=2, n_red=2, mem_blue=20000, mem_red=20000)


#: Policies and stream-length factor of the ``session_length`` section.
SESSION_POLICIES = ("immediate", "replan:16")
SESSION_SCALE = 10
#: Runs per row; latencies are the best of them.
SESSION_REPEATS = 3


def _trace(args: argparse.Namespace, n_arrivals: int) -> list:
    return poisson_trace(n_arrivals, seed=args.seed, rate=args.rate,
                         tick=args.tick, size=args.size, width=0.4,
                         density=0.5, jumps=3)


def bench_policies(args: argparse.Namespace, trace: list) -> list[dict]:
    out = []
    for spec in args.policies.split(","):
        spec = spec.strip()
        t0 = time.perf_counter()
        result = simulate(trace, BENCH_PLATFORM, algorithm=args.algorithm,
                          policy=spec)
        wall = time.perf_counter() - t0
        stats = result.latency_stats()
        clairvoyant = result.clairvoyant_makespan()
        regret = result.regret(clairvoyant)
        row = {
            "policy": result.session.policy.name,
            "n_arrivals": len(trace),
            "n_rounds": stats["n_rounds"],
            "p50_ms": stats["p50_ms"],
            "p99_ms": stats["p99_ms"],
            "max_ms": stats["max_ms"],
            "makespan": result.makespan,
            "clairvoyant_makespan": clairvoyant,
            "regret_pct": round(regret * 100.0, 2),
            "wall_s": round(wall, 4),
        }
        out.append(row)
        print(f"[policy]     {row['policy']:<12} "
              f"p50={row['p50_ms']:g}ms p99={row['p99_ms']:g}ms "
              f"regret={row['regret_pct']:+.1f}% "
              f"({row['n_rounds']} rounds, {wall:.2f}s)")
    return out


def bench_determinism(args: argparse.Namespace, trace: list) -> dict:
    j1 = simulate(trace, BENCH_PLATFORM, algorithm=args.algorithm,
                  policy="immediate").journal()
    j2 = simulate(trace, BENCH_PLATFORM, algorithm=args.algorithm,
                  policy="immediate").journal()
    identical = j1 == j2
    result = {
        "identical_journal": identical,
        "journal_bytes": len(j1.encode("utf-8")),
    }
    print(f"[determinism] two replays identical={identical} "
          f"({result['journal_bytes']} journal bytes)")
    return result


def bench_identity(args: argparse.Namespace, trace: list) -> dict:
    online = simulate(zero_release(trace), BENCH_PLATFORM,
                      algorithm=args.algorithm, policy="immediate")
    jobs = sorted(online.session.jobs.values(),
                  key=lambda j: j.arrival_index)
    union = build_union_graph(jobs, BENCH_PLATFORM.n_classes)
    offline = get_scheduler(args.algorithm)(union, BENCH_PLATFORM)
    offline_by_task = {p.task: p for p in offline.placements()}
    identical = True
    for job in jobs:
        for task, placement in job.placements.items():
            ref = offline_by_task[f"{job.job_id}/{task}"]
            identical &= (placement.proc == ref.proc
                          and placement.start == ref.start
                          and placement.finish == ref.finish)
    result = {
        "algorithm": args.algorithm,
        "backend": resolve_backend().name,
        "offline_identical": identical,
        "makespan": online.makespan,
    }
    print(f"[identity]   zero-release online == offline: {identical} "
          f"(makespan {online.makespan:g}, "
          f"backend {result['backend']})")
    return result


def bench_session_length(args: argparse.Namespace) -> list[dict]:
    # Generated last: a larger heap makes every later garbage collection
    # slower.  The short stream is a prefix of the long one.
    long_trace = _trace(args, SESSION_SCALE * args.arrivals)
    lengths = (args.arrivals, len(long_trace))
    out = []
    for spec in SESSION_POLICIES:
        # Short and long runs interleave, so a drift in machine speed
        # hits both; latencies are the best of the repeats.  Only the
        # round rows are kept: a finished session would grow the heap.
        stats: dict = {n: [] for n in lengths}
        rounds: dict = {}
        for _ in range(SESSION_REPEATS):
            for n in lengths:
                gc.collect()
                result = simulate(long_trace[:n], BENCH_PLATFORM,
                                  algorithm=args.algorithm, policy=spec)
                stats[n].append(result.latency_stats())
                rounds[n] = result.session.rounds
                del result
        for n in lengths:
            union = sum(r["union_tasks"] for r in rounds[n]) / len(rounds[n])
            replayed = sum(r["replayed"] for r in rounds[n]) / len(rounds[n])
            row = {
                "policy": spec,
                "n_arrivals": n,
                "n_rounds": len(rounds[n]),
                "p50_ms": min(s["p50_ms"] for s in stats[n]),
                "p99_ms": min(s["p99_ms"] for s in stats[n]),
                "union_tasks_per_round": round(union, 3),
                "replayed_per_round": round(replayed, 3),
                "work_per_round": round(union + replayed, 3),
            }
            out.append(row)
            print(f"[session]    {row['policy']:<12} n={n:<5} "
                  f"p50={row['p50_ms']:g}ms p99={row['p99_ms']:g}ms "
                  f"work/round={row['work_per_round']:g}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--algorithm", default="memheft")
    parser.add_argument("--arrivals", type=int, default=200,
                        help="jobs in the arrival stream (the latency "
                             "gate lives at 200; the session_length "
                             "section also runs 10x as many)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rate", type=float, default=2.0,
                        help="Poisson arrival intensity")
    parser.add_argument("--tick", type=float, default=2.5,
                        help="release quantization (same-tick arrivals "
                             "plan in one round)")
    parser.add_argument("--size", type=int, default=12,
                        help="tasks per job")
    parser.add_argument("--policies",
                        default="immediate,batched:10,replan:16",
                        help="comma-separated policy specs to measure")
    parser.add_argument("--json", metavar="PATH",
                        help="write BENCH_online.json here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    trace = _trace(args, args.arrivals)
    policies = bench_policies(args, trace)
    determinism = bench_determinism(args, trace)
    identity = bench_identity(args, trace)
    session_length = bench_session_length(args)
    report = {
        "bench": "online",
        "schema_version": 2,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform_mod.python_version(),
        "machine": platform_mod.platform(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "arrivals": args.arrivals,
            "seed": args.seed,
            "rate": args.rate,
            "tick": args.tick,
            "size": args.size,
            "algorithm": args.algorithm,
        },
        "policies": policies,
        "determinism": determinism,
        "identity": identity,
        "session_length": session_length,
    }
    if args.json:
        from repro._util import atomic_write_json
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
