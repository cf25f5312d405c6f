"""Observability benchmark: instrumentation overhead, trace determinism,
and a live exposition-format check.

Three sections, emitted as ``BENCH_obs.json`` (schema in
``benchmarks/README.md``; CI gates it via ``scripts/check_speedup.py
--obs``):

* ``overhead`` — the same deterministic per-graph sweep run disabled
  and enabled (``MEMSCHED_OBS`` semantics: the metrics registry, which
  is what a deployment turns on process-wide; span tracing is a
  separate per-run ``--trace`` opt-in and is reported informationally
  as ``traced_pct``), interleaved at the *finest* grain the workload
  allows: each round runs every graph's sweep back-to-back in both
  variants, alternating which goes first per ``(round + graph) % 2``,
  so slow drifts (frequency scaling, co-tenants) hit both variants
  equally.  Each back-to-back pair
  yields one CPU-time ratio (``time.process_time`` ignores the other
  cores, and the two sides of a pair share one CPU-frequency regime),
  and a process instance reports the **median** of its pair ratios.
  That median is then taken over several *fresh interpreter instances*
  and the **minimum** kept: per-process code layout shifts the
  measured cost of identical deterministic work by a couple of percent
  either way, so the least-disturbed instance is the honest floor.
  The sweep results must stay identical in every pair.  Gate: 3%.
* ``determinism`` — the same traced workload twice, from fresh tracers:
  the span *structure* (ids, parents, names, attributes — everything
  but the timings) must be byte-identical, and traced sweep results
  must equal the untraced reference.
* ``scrape`` — a live :class:`ThreadedServer` under observability,
  exercised over the wire; its ``GET /metrics`` body must parse as
  Prometheus text exposition and account for every request made.

Run::

    PYTHONPATH=src python benchmarks/bench_obs.py --json BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs.py --repeats 5 --graphs 6
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import statistics
import subprocess
import sys
import tempfile
import time

from repro import obs
from repro.dags import small_rand_set
from repro.experiments.figures import RAND_PLATFORM
from repro.experiments.sweep import default_alphas, normalized_sweep


def _sweep(args: argparse.Namespace):
    graphs = small_rand_set(n_graphs=args.graphs, size=args.size)
    return normalized_sweep(graphs, RAND_PLATFORM,
                            alphas=default_alphas(args.alphas))


# ----------------------------------------------------------------------
# instrumentation overhead
# ----------------------------------------------------------------------
def overhead_instance(args: argparse.Namespace) -> dict:
    """One interpreter instance's overhead measurement: the median of
    per-graph ABBA pair ratios (module docstring)."""
    graphs = list(small_rand_set(n_graphs=args.graphs, size=args.size))
    alphas = default_alphas(args.alphas)

    def unit_plain(graph) -> tuple[float, object]:
        t0 = time.process_time()
        result = normalized_sweep([graph], RAND_PLATFORM, alphas=alphas)
        return time.process_time() - t0, result.cells

    def unit_enabled(graph) -> tuple[float, object]:
        with obs.observing():
            t0 = time.process_time()
            result = normalized_sweep([graph], RAND_PLATFORM,
                                      alphas=alphas)
            return time.process_time() - t0, result.cells

    def unit_traced(graph, trace_path) -> tuple[float, object]:
        with obs.observing(trace_path,
                           trace_ident=("bench", "overhead")):
            t0 = time.process_time()
            result = normalized_sweep([graph], RAND_PLATFORM,
                                      alphas=alphas)
            return time.process_time() - t0, result.cells

    def pair_rounds(other, n_rounds) -> tuple[list, float, float, bool]:
        ratios: list[float] = []
        plain_s = other_s = 0.0
        identical = True
        for rnd in range(n_rounds):
            for k, graph in enumerate(graphs):
                if (rnd + k) % 2 == 0:
                    p_s, p_cells = unit_plain(graph)
                    o_s, o_cells = other(graph)
                else:
                    o_s, o_cells = other(graph)
                    p_s, p_cells = unit_plain(graph)
                ratios.append(o_s / p_s)
                plain_s += p_s
                other_s += o_s
                identical = identical and p_cells == o_cells
        return ratios, plain_s, other_s, identical

    n_rounds = max(args.repeats, 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        # warm-up: imports, allocator, scheduler caches, and the
        # observed paths' registry/tracer setup
        unit_plain(graphs[0])
        unit_enabled(graphs[0])
        unit_traced(graphs[0], path)
        ratios, plain_s, enabled_s, identical = pair_rounds(
            unit_enabled, n_rounds)
        traced_ratios, _, _, traced_identical = pair_rounds(
            lambda graph: unit_traced(graph, path), 1)
    identical = identical and traced_identical
    assert identical, "observed sweep diverged from the plain run"
    return {
        "median_pct": (statistics.median(ratios) - 1.0) * 100.0,
        "traced_median_pct":
            (statistics.median(traced_ratios) - 1.0) * 100.0,
        "n_pairs": len(ratios),
        "plain_cpu_s": plain_s,
        "enabled_cpu_s": enabled_s,
        "identical_results": identical,
    }


def bench_overhead(args: argparse.Namespace) -> dict:
    """Minimum of per-instance medians over fresh interpreter instances
    (module docstring); each instance is a ``--overhead-worker`` child
    of this very script."""
    instances = []
    cmd = [sys.executable, os.path.abspath(__file__), "--overhead-worker",
           "--repeats", str(args.repeats), "--graphs", str(args.graphs),
           "--size", str(args.size), "--alphas", str(args.alphas)]
    for _ in range(args.instances):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=True)
        instances.append(json.loads(proc.stdout.splitlines()[-1]))
    best = min(instances, key=lambda inst: inst["median_pct"])
    overhead_pct = best["median_pct"]
    traced_pct = min(inst["traced_median_pct"] for inst in instances)
    identical = all(inst["identical_results"] for inst in instances)
    section = {
        "n_graphs": args.graphs,
        "graph_size": args.size,
        "n_alphas": args.alphas,
        "repeats": args.repeats,
        "n_instances": args.instances,
        "n_pairs": best["n_pairs"],
        "instance_pct": [round(inst["median_pct"], 2)
                         for inst in instances],
        "plain_cpu_s": round(best["plain_cpu_s"], 4),
        "enabled_cpu_s": round(best["enabled_cpu_s"], 4),
        "overhead_pct": round(overhead_pct, 2),
        "traced_pct": round(traced_pct, 2),
        "identical_results": identical,
    }
    print(f"[overhead]    instances="
          f"{[f'{p:+.2f}%' for p in section['instance_pct']]} -> "
          f"overhead={overhead_pct:+.2f}% (traced {traced_pct:+.2f}%) "
          f"identical={identical}")
    return section


# ----------------------------------------------------------------------
# trace determinism
# ----------------------------------------------------------------------
def _structure(trace_path: str) -> list:
    """A trace's time-free skeleton: every span row minus its timings."""
    from repro.obs.report import load_trace

    return [{k: v for k, v in row.items() if k not in ("t0", "dur")}
            for row in load_trace(trace_path)]


def bench_determinism(args: argparse.Namespace) -> dict:
    """Two traced runs of the same workload must produce the same span
    structure, and the same results as the untraced reference."""
    reference = _sweep(args).cells
    structures, results = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("a", "b"):
            path = os.path.join(tmp, f"trace_{run}.jsonl")
            with obs.observing(path, trace_ident=("bench", "determinism")):
                results.append(_sweep(args).cells)
            structures.append(_structure(path))
    structure_repeats = structures[0] == structures[1]
    results_identical = results[0] == results[1] == reference
    section = {
        "n_spans": len(structures[0]),
        "structure_repeats": structure_repeats,
        "identical_results": results_identical,
    }
    print(f"[determinism] spans={section['n_spans']} "
          f"structure_repeats={structure_repeats} "
          f"identical_results={results_identical}")
    return section


# ----------------------------------------------------------------------
# live /metrics scrape
# ----------------------------------------------------------------------
def _valid_exposition(text: str) -> tuple[bool, int]:
    """Minimal Prometheus text-format validation: every non-comment line
    is ``name{labels} value`` with a float value; returns (ok, samples)."""
    samples = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            name_part, value = line.rsplit(" ", 1)
            float(value)
        except ValueError:
            return False, samples
        bare = name_part.split("{", 1)[0]
        if not bare or not bare.replace("_", "").isalnum():
            return False, samples
        samples += 1
    return samples > 0, samples


def bench_scrape(args: argparse.Namespace) -> dict:
    """Exercise a live observed server, then validate its scrape."""
    from repro.service import ServiceApp, ServiceClient, ThreadedServer

    n_requests = 8
    with obs.observing():
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port)
            try:
                for _ in range(n_requests):
                    client.healthz()
                text = client.metrics()
            finally:
                client.close()
    ok, samples = _valid_exposition(text)
    counted = 0
    for line in text.splitlines():
        if line.startswith('memsched_http_requests_total{'
                           'endpoint="/healthz"'):
            counted = int(float(line.rsplit(" ", 1)[1]))
    section = {
        "valid_exposition": ok,
        "n_samples": samples,
        "healthz_requests_made": n_requests,
        "healthz_requests_counted": counted,
        "requests_accounted": counted == n_requests,
    }
    print(f"[scrape]      valid={ok} samples={samples} "
          f"healthz counted={counted}/{n_requests}")
    return section


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved timing rounds per instance "
                             "(floored at 3)")
    parser.add_argument("--graphs", type=int, default=12,
                        help="graphs per sweep")
    parser.add_argument("--size", type=int, default=100,
                        help="tasks per graph")
    parser.add_argument("--alphas", type=int, default=8,
                        help="alpha grid points per sweep")
    parser.add_argument("--instances", type=int, default=3,
                        help="fresh interpreter instances for the "
                             "overhead section")
    parser.add_argument("--overhead-worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--json", metavar="PATH",
                        help="write BENCH_obs.json here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.overhead_worker:
        print(json.dumps(overhead_instance(args)))
        return 0
    report = {
        "bench": "obs",
        "schema_version": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform_mod.python_version(),
        "machine": platform_mod.platform(),
        "cpu_count": os.cpu_count(),
        "overhead": bench_overhead(args),
        "determinism": bench_determinism(args),
        "scrape": bench_scrape(args),
    }
    if args.json:
        from repro._util import atomic_write_json
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
