"""Load-generator benchmark for the scheduling service (`memsched serve`).

Spins up live in-process servers (:class:`repro.service.ThreadedServer`)
and drives them with real HTTP clients, emitting a machine-readable
``BENCH_service.json`` (schema in ``benchmarks/README.md``) so the service
perf trajectory is tracked alongside ``BENCH_scaling.json``:

* **latency** — one ``/schedule`` instance at ``--latency-tasks`` (default
  1000, the paper's LargeRandSet scale): the cold path (parse → schedule →
  validate → serialize) against the warm content-addressed cache hit.
  The PR 3 acceptance target is warm ≥ 10× faster than cold at n = 1000;
  the cold and warm bodies are asserted byte-identical.  The request is
  encoded once and sent as bytes, so the timings hold the service rather
  than the client's JSON.
* **throughput** — ``--requests`` requests over ``--clients`` concurrent
  keep-alive clients cycling through a small graph pool (first pass cold,
  the rest cache hits), reporting req/s and p50/p99 latency.
* **batch** — one ``/batch`` of HugeRandSet instances against a fresh
  ``workers=1`` server and a fresh ``--workers N`` server; results are
  asserted byte-identical (serial ≡ parallel by construction), wall-clock
  compared.  On a single-core container the parallel path can only lose —
  ``cpu_count`` is recorded next to the numbers.

Run::

    PYTHONPATH=src python benchmarks/bench_service.py --json BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py \
        --latency-tasks 300 --requests 40 --clients 4 --workers 2   # smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform as platform_mod
import sys
import threading
import time

from repro.core.platform import Platform
from repro.dags.daggen import random_dag
from repro.dags.datasets import huge_rand_set
from repro.io.json_io import graph_to_dict, platform_to_dict
from repro.service import ServiceApp, ServiceClient, ThreadedServer
from repro.service.client import build_request

#: Two processors per class with *finite* capacities, so the cold path
#: exercises the real memory machinery (bounded ``earliest_fit`` queries,
#: staircase bookkeeping).  12000 sits ~1.5x above the largest peak any
#: bench family reaches (n=1000 daggen peaks ~7600), so every instance
#: stays feasible while the bound is finite.
BENCH_PLATFORM = Platform(n_blue=2, n_red=2, mem_blue=12000, mem_red=12000)


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def _graph_dict(size: int, seed: int) -> dict:
    g = random_dag(size=size, rng=seed,
                   w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))
    g.name = f"bench_service[{size}/{seed}]"
    return graph_to_dict(g)


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _post_schedule(conn: http.client.HTTPConnection,
                   body: bytes) -> tuple[float, str, bytes]:
    """One ``POST /schedule`` of pre-encoded ``body``: seconds from send
    to the last response byte, the ``X-Cache`` verdict, the body."""
    t0 = time.perf_counter()
    conn.request("POST", "/schedule", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = resp.read()
    elapsed = time.perf_counter() - t0
    assert resp.status == 200, data[:200]
    return elapsed, resp.getheader("X-Cache", ""), data


def bench_latency(args: argparse.Namespace) -> dict:
    # Encoded once and sent as bytes, responses kept as bytes: the
    # client's JSON of a 1000-task instance (~13 ms) would otherwise
    # swamp the warm hit it times.
    body = json.dumps(build_request(
        _graph_dict(args.latency_tasks, seed=42),
        platform_to_dict(BENCH_PLATFORM), args.algorithm)).encode("utf-8")
    with ThreadedServer(ServiceApp(workers=1)) as srv:
        with ServiceClient(srv.host, srv.port) as probe:
            probe.wait_until_ready()
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=600)
        cold_s, verdict, cold = _post_schedule(conn, body)
        assert verdict == "miss", verdict
        warm_times = []
        identical = True
        for _ in range(args.latency_warm):
            elapsed, verdict, warm = _post_schedule(conn, body)
            warm_times.append(elapsed)
            assert verdict == "hit", verdict
            identical &= (warm == cold)
        conn.close()
    warm_p50 = _percentile(warm_times, 0.50)
    result = {
        "n_tasks": args.latency_tasks,
        "algorithm": args.algorithm,
        "cold_s": round(cold_s, 6),
        "warm_p50_s": round(warm_p50, 6),
        "warm_p99_s": round(_percentile(warm_times, 0.99), 6),
        "speedup_cold_over_warm": round(cold_s / warm_p50, 2),
        "meets_10x": cold_s / warm_p50 >= 10.0,
        "identical_bytes": identical,
    }
    print(f"[latency]    n={result['n_tasks']} cold={cold_s:.4f}s "
          f"warm_p50={warm_p50:.4f}s "
          f"speedup={result['speedup_cold_over_warm']:g}x "
          f"identical={identical}")
    return result


def bench_throughput(args: argparse.Namespace) -> tuple[dict, dict]:
    graphs = [_graph_dict(args.throughput_tasks, seed=100 + k)
              for k in range(args.throughput_graphs)]
    platform_d = platform_to_dict(BENCH_PLATFORM)
    latencies: list[float] = []
    lock = threading.Lock()
    with ThreadedServer(ServiceApp(workers=1)) as srv:
        probe = ServiceClient(srv.host, srv.port)
        probe.wait_until_ready()

        def worker(offset: int) -> None:
            client = ServiceClient(srv.host, srv.port)
            local: list[float] = []
            for r in range(offset, args.requests, args.clients):
                t0 = time.perf_counter()
                client.schedule(graphs[r % len(graphs)], platform_d,
                                args.algorithm)
                local.append(time.perf_counter() - t0)
            client.close()
            with lock:
                latencies.extend(local)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(c,))
                   for c in range(args.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        health = probe.healthz()
        probe.close()
    cache = health["cache"]
    hit_rate = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    result = {
        "clients": args.clients,
        "n_graphs": args.throughput_graphs,
        "graph_size": args.throughput_tasks,
        "n_requests": len(latencies),
        "wall_s": round(wall, 4),
        "rps": round(len(latencies) / wall, 2),
        "p50_s": round(_percentile(latencies, 0.50), 6),
        "p99_s": round(_percentile(latencies, 0.99), 6),
        "cache_hit_rate": round(hit_rate, 4),
    }
    print(f"[throughput] {result['n_requests']} reqs / {args.clients} clients "
          f"in {wall:.3f}s = {result['rps']:g} req/s "
          f"(p50={result['p50_s']*1e3:.1f}ms p99={result['p99_s']*1e3:.1f}ms "
          f"hit_rate={hit_rate:.0%})")
    return result, cache


def bench_batch(args: argparse.Namespace) -> dict:
    graphs = huge_rand_set(n_graphs=args.batch_size, size=args.batch_tasks)
    platform_d = platform_to_dict(BENCH_PLATFORM)
    requests = [build_request(graph_to_dict(g), platform_d, args.algorithm)
                for g in graphs]

    def run(workers: int) -> tuple[float, list[bytes]]:
        # A fresh server per run: the comparison needs a cold cache.
        with ThreadedServer(ServiceApp(workers=workers)) as srv:
            client = ServiceClient(srv.host, srv.port, timeout=600.0)
            client.wait_until_ready()
            if workers > 1:
                # Warm the persistent pool (worker spawn + package import
                # is paid once per service *lifetime*, not per batch — an
                # always-on service never pays it on the request path, so
                # the steady-state comparison must not either).  The
                # warm-up graphs are distinct from the measured ones, so
                # the cache stays cold for the real batch.
                warmup = [build_request(_graph_dict(10, seed=9000 + k),
                                        platform_d, args.algorithm)
                          for k in range(workers)]
                client.batch(warmup)
            t0 = time.perf_counter()
            results = client.batch(requests)
            elapsed = time.perf_counter() - t0
            client.close()
        bodies = [json.dumps(r.schedule, sort_keys=True).encode()
                  for r in results]
        return elapsed, bodies

    serial_s, serial_bodies = run(1)
    workers_s, workers_bodies = run(args.workers)
    identical = serial_bodies == workers_bodies
    result = {
        "size": args.batch_size,
        "graph_size": args.batch_tasks,
        "workers": args.workers,
        "serial_s": round(serial_s, 4),
        "workers_s": round(workers_s, 4),
        "speedup": round(serial_s / workers_s, 2),
        "identical_results": identical,
    }
    print(f"[batch]      {args.batch_size}x{args.batch_tasks}-task instances: "
          f"serial={serial_s:.3f}s workers({args.workers})={workers_s:.3f}s "
          f"speedup={result['speedup']:g}x identical={identical}")
    return result


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--algorithm", default="memheft")
    parser.add_argument("--latency-tasks", type=int, default=1000,
                        help="graph size for the cold/warm latency section "
                             "(acceptance target lives at 1000)")
    parser.add_argument("--latency-warm", type=int, default=7,
                        help="warm repetitions (p50 reported)")
    parser.add_argument("--requests", type=int, default=60,
                        help="total requests in the throughput section")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent keep-alive clients")
    parser.add_argument("--throughput-graphs", type=int, default=12)
    parser.add_argument("--throughput-tasks", type=int, default=120)
    parser.add_argument("--batch-size", type=int, default=4,
                        help="HugeRandSet instances per /batch")
    parser.add_argument("--batch-tasks", type=int, default=250,
                        help="tasks per batch instance")
    parser.add_argument("-w", "--workers", type=int, default=2,
                        help="process-pool size for the parallel batch run")
    parser.add_argument("--json", metavar="PATH",
                        help="write BENCH_service.json here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    latency = bench_latency(args)
    throughput, cache = bench_throughput(args)
    batch = bench_batch(args)
    report = {
        "bench": "service",
        "schema_version": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform_mod.python_version(),
        "machine": platform_mod.platform(),
        "cpu_count": os.cpu_count(),
        "latency": latency,
        "throughput": throughput,
        "throughput_cache": cache,
        "batch": batch,
    }
    if args.json:
        from repro._util import atomic_write_json
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
