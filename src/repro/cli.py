"""Command-line interface (installed as ``memsched``; also
``python -m repro``).

Subcommands::

    memsched generate  --kind daggen --size 30 --seed 1 -o graph.json
    memsched schedule  graph.json --algo memheft --blue 1 --red 1 \
                       --mem-blue 40 --mem-red 40 --gantt
    memsched validate  graph.json schedule.json
    memsched bounds    graph.json --blue 2 --red 1
    memsched ilp       graph.json --blue 1 --red 1 --mem-blue 5 --mem-red 5
    memsched experiment fig10 --scale ci
    memsched experiment fig12 --jobs 4
    memsched serve     --port 8123 --workers 4
    memsched submit    graph.json --algo memheft --port 8123 -o sched.json
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from . import obs
from ._util import require_numpy
from .core.bounds import (
    critical_path_lower_bound,
    lower_bound,
    split_work_lower_bound,
    work_lower_bound,
)
from .core.platform import Platform
from .core.trace import format_trace, memory_timeline, trace_schedule
from .core.validation import validate_schedule
from .dags.daggen import random_dag
from .dags.linalg import cholesky_dag, lu_dag
from .dags.toy import dex
from .experiments.config import SCALES, get_scale
from .experiments.figures import EXPERIMENTS
from .io.dot import to_dot
from .io.gantt import ascii_gantt, memory_sparkline, schedule_summary
from .io.json_io import load_graph, load_schedule, save_graph, save_schedule
from .scheduling.registry import ENGINE_OPTIONED, SCHEDULERS, get_scheduler
from .scheduling.state import COMM_POLICIES, InfeasibleScheduleError


def _maybe_trace(args: argparse.Namespace, *ident: object):
    """Scope a span tracer to the command when ``--trace FILE`` was given
    (deterministic trace id derived from the invocation); a no-op
    otherwise, so untraced runs stay on the zero-overhead path."""
    path = getattr(args, "trace", None)
    if not path:
        return nullcontext()
    return obs.observing(path, trace_ident=ident)


def _platform_from_args(args: argparse.Namespace) -> Platform:
    if getattr(args, "mems", None) and not getattr(args, "procs", None):
        raise SystemExit("error: --mems requires --procs "
                         "(use --mem-blue/--mem-red on dual platforms)")
    speeds = None
    if getattr(args, "speeds", None):
        try:
            speeds = [float(s) for s in args.speeds.split(",")]
        except ValueError as exc:
            raise SystemExit(f"error: invalid --speeds: {exc}") from None
    try:
        if getattr(args, "procs", None):
            counts = [int(n) for n in args.procs.split(",")]
            if args.mems:
                caps = [math.inf if m in ("inf", "") else float(m)
                        for m in args.mems.split(",")]
            else:
                caps = [math.inf] * len(counts)
            return Platform(counts, caps, speeds=speeds)
        return Platform(
            n_blue=args.blue,
            n_red=args.red,
            mem_blue=math.inf if args.mem_blue is None else args.mem_blue,
            mem_red=math.inf if args.mem_red is None else args.mem_red,
            speeds=speeds,
        )
    except ValueError as exc:
        raise SystemExit(
            f"error: invalid --procs/--mems/--speeds: {exc}") from None


def _add_platform_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--blue", type=int, default=1, help="blue (CPU) processors")
    parser.add_argument("--red", type=int, default=1, help="red (GPU) processors")
    parser.add_argument("--mem-blue", type=float, default=None,
                        help="blue memory capacity (default: unbounded)")
    parser.add_argument("--mem-red", type=float, default=None,
                        help="red memory capacity (default: unbounded)")
    parser.add_argument("--procs", default=None, metavar="N0,N1,...",
                        help="k-memory platform: processors per memory class "
                             "(overrides --blue/--red)")
    parser.add_argument("--mems", default=None, metavar="M0,M1,...",
                        help="k-memory capacities per class ('inf' allowed; "
                             "requires --procs)")
    parser.add_argument("--speeds", default=None, metavar="S0,S1,...",
                        help="per-processor relative speeds in global "
                             "processor order (one entry per processor; "
                             "default: all 1.0 — the paper's homogeneous "
                             "model)")


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        if args.kind == "daggen":
            graph = random_dag(size=args.size, width=args.width,
                               density=args.density, jumps=args.jumps,
                               rng=args.seed)
        elif args.kind == "lu":
            graph = lu_dag(args.tiles)
        elif args.kind == "cholesky":
            graph = cholesky_dag(args.tiles)
        elif args.kind == "dex":
            graph = dex()
        else:  # pragma: no cover - argparse choices prevent this
            raise ValueError(args.kind)
    except ValueError as exc:   # a bad generator parameter
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        save_graph(graph, args.output)
        print(f"wrote {graph.n_tasks} tasks / {graph.n_edges} edges to {args.output}")
    if args.dot:
        print(to_dot(graph))
    if not args.output and not args.dot:
        print(f"{graph.name}: {graph.n_tasks} tasks, {graph.n_edges} edges "
              "(use -o/--dot to export)")
    return 0


def _check_classes(graph, platform, *, dual_only: bool = False) -> bool:
    """Validate graph/platform arity; prints the error and returns False."""
    if graph.n_classes != platform.n_classes:
        print(f"error: graph has {graph.n_classes} memory classes but the "
              f"platform has {platform.n_classes}", file=sys.stderr)
        return False
    if dual_only and platform.n_classes != 2:
        print("error: this subcommand only supports dual-memory (k=2) "
              "platforms", file=sys.stderr)
        return False
    return True


def cmd_schedule(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    platform = _platform_from_args(args)
    scheduler = get_scheduler(args.algo)
    if not _check_classes(graph, platform):
        return 2
    try:
        with _maybe_trace(args, "schedule", args.graph, args.algo):
            schedule = scheduler(graph, platform)
    except InfeasibleScheduleError as exc:
        print(f"INFEASIBLE: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    peaks = validate_schedule(graph, platform, schedule)
    print(f"algorithm : {args.algo}")
    print(f"makespan  : {schedule.makespan:g}")
    print("peaks     : " + " ".join(f"{m.value}={v:g}" for m, v in peaks.items()))
    if args.gantt:
        print(ascii_gantt(schedule))
        for memory in platform.memories():
            timeline = memory_timeline(graph, platform, schedule, memory)
            spark = memory_sparkline(timeline, platform.capacity(memory),
                                     span=schedule.makespan)
            print(f"{memory.value:>5} mem {spark}")
    if args.summary:
        print(schedule_summary(schedule))
    if args.events:
        print(format_trace(trace_schedule(graph, platform, schedule)))
    if args.output:
        save_schedule(schedule, args.output)
        print(f"wrote schedule to {args.output}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    try:
        # Loading rejects malformed windows (NaN, negative, reversed).
        schedule = load_schedule(args.schedule)
        peaks = validate_schedule(graph, schedule.platform, schedule)
    except ValueError as exc:   # ScheduleError is a ValueError
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2
    print(f"valid schedule; makespan={schedule.makespan:g}; "
          f"peaks={{{', '.join(f'{m.value}: {v:g}' for m, v in peaks.items())}}}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    platform = _platform_from_args(args)
    if not _check_classes(graph, platform):
        return 2
    print(f"critical path : {critical_path_lower_bound(graph, platform):g}")
    print(f"work          : {work_lower_bound(graph, platform):g}")
    print(f"split work    : {split_work_lower_bound(graph, platform):g}")
    print(f"lower bound   : {lower_bound(graph, platform):g}")
    return 0


def cmd_ilp(args: argparse.Namespace) -> int:
    require_numpy("memsched ilp")
    from .ilp import solve_ilp   # scipy, loaded only for this command

    graph = load_graph(args.graph)
    platform = _platform_from_args(args)
    if not _check_classes(graph, platform, dual_only=True):
        return 2
    if platform.is_heterogeneous:
        print("error: the exact ILP only models homogeneous (all speed "
              "1.0) platforms", file=sys.stderr)
        return 2
    try:
        sol = solve_ilp(graph, platform, node_limit=args.node_limit,
                        time_limit=args.time_limit)
    except RuntimeError as exc:   # HiGHS ended with an error status
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"status      : {sol.status}")
    print(f"makespan    : {sol.makespan}")
    print(f"lower bound : {sol.lower_bound:g}")
    print(f"nodes       : {sol.nodes} ({sol.runtime:.2f}s)")
    if sol.schedule is not None and args.gantt:
        print(ascii_gantt(sol.schedule))
    return 0 if sol.status in ("optimal", "feasible") else 2


def cmd_experiment(args: argparse.Namespace) -> int:
    require_numpy("memsched experiment")
    scale = get_scale(args.scale)
    with _maybe_trace(args, "experiment", args.figure, args.scale or ""):
        with obs.span("experiment", figure=args.figure):
            result = EXPERIMENTS[args.figure](scale, jobs=args.jobs)
    if args.trace:
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    print(result)
    if args.csv:
        from ._util import atomic_write_text
        from .experiments.report import (
            absolute_to_csv,
            heterogeneity_to_csv,
            sweep_to_csv,
        )
        from .experiments.sweep import (
            AbsoluteSweepResult,
            HeterogeneitySweepResult,
            SweepResult,
        )
        data = result.data
        if isinstance(data, dict):  # fig10 carries two sweeps
            data = data.get("heuristics", data)
        if isinstance(data, SweepResult):
            atomic_write_text(args.csv, sweep_to_csv(data))
        elif isinstance(data, AbsoluteSweepResult):
            atomic_write_text(args.csv, absolute_to_csv(data))
        elif isinstance(data, HeterogeneitySweepResult):
            atomic_write_text(args.csv, heterogeneity_to_csv(data))
        else:
            print(f"--csv not supported for {args.figure}", file=sys.stderr)
            return 2
        print(f"wrote CSV to {args.csv}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve
    return serve(args.host, args.port, workers=args.workers,
                 cache_size=args.cache_size,
                 max_connections=args.max_connections,
                 idle_timeout=args.idle_timeout)


def _print_response(resp, graph_path: str) -> None:
    cache = {True: "hit", False: "miss", None: "?"}[resp.cached]
    print(f"graph     : {graph_path}")
    print(f"algorithm : {resp.algorithm}")
    print(f"makespan  : {resp.makespan:g}")
    print(f"peaks     : {' '.join(f'{v:g}' for v in resp.peaks)}")
    print(f"cache     : {cache}  (digest {resp.digest[:16]}...)")


def cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    if args.output and len(args.graphs) > 1:
        print("error: -o/--output only applies to a single graph",
              file=sys.stderr)
        return 2
    platform = _platform_from_args(args)
    graphs = [load_graph(p) for p in args.graphs]
    options = {}
    if args.comm_policy != "late":
        options["comm_policy"] = args.comm_policy
    client = ServiceClient(args.host, args.port, timeout=args.timeout,
                           deadline=args.timeout)
    try:
        with _maybe_trace(args, "submit", tuple(args.graphs), args.algo), \
                obs.span("submit", algorithm=args.algo,
                         n_graphs=len(graphs)):
            return _run_submit(args, client, graphs, platform, options)
    finally:
        client.close()


def _run_submit(args, client, graphs, platform, options) -> int:
    from .service.client import ServiceClientError
    try:
        client.wait_until_ready(args.wait)
        if len(graphs) == 1:
            resp = client.schedule(graphs[0], platform, args.algo,
                                   options or None)
            responses = [resp]
            _print_response(resp, args.graphs[0])
        else:
            results = client.batch(
                [(g, platform, args.algo, options or None) for g in graphs])
            responses = []
            for path, res in zip(args.graphs, results):
                if isinstance(res, ServiceClientError):
                    print(f"{path}: ERROR [{res.err_type}] {res.message}",
                          file=sys.stderr)
                else:
                    responses.append(res)
                    print(f"{path}: makespan={res.makespan:g} "
                          f"cache={'hit' if res.cached else 'miss'}")
            if len(responses) != len(graphs):
                return 2
    except ServiceClientError as exc:
        if exc.err_type == "infeasible":
            print(f"INFEASIBLE: {exc.message}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        from ._util import atomic_write_json
        atomic_write_json(args.output, responses[0].schedule)
        print(f"wrote schedule to {args.output}")
    return 0


def cmd_online_trace(args: argparse.Namespace) -> int:
    from .online import poisson_trace, write_trace, zero_release

    try:
        trace = poisson_trace(args.n, seed=args.seed, rate=args.rate,
                              ident=args.ident, size=args.size,
                              width=args.width, density=args.density,
                              jumps=args.jumps, tick=args.tick)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.zero_release:
        trace = zero_release(trace)
    write_trace(trace, args.output)
    releases = [row["release"] for row in trace]
    print(f"wrote {len(trace)} arrivals to {args.output} "
          f"(releases {min(releases):g}..{max(releases):g}, "
          f"{len(set(releases))} distinct)")
    return 0


def cmd_online_run(args: argparse.Namespace) -> int:
    from .online import read_trace, simulate

    try:
        trace = read_trace(args.arrivals)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.arrivals!r}: {exc}",
              file=sys.stderr)
        return 2
    platform = _platform_from_args(args)
    try:
        with _maybe_trace(args, "online-run", args.algo, args.policy,
                          len(trace)):
            result = simulate(trace, platform, algorithm=args.algo,
                              policy=args.policy,
                              comm_policy=args.comm_policy)
    except (InfeasibleScheduleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = result.latency_stats()
    clairvoyant = result.clairvoyant_makespan()
    regret = result.regret(clairvoyant)
    print(f"{args.algo} policy={result.session.policy.name}: "
          f"{len(trace)} jobs in {stats['n_rounds']} rounds")
    print(f"makespan    {result.makespan:g}  "
          f"(clairvoyant {clairvoyant:g}, regret {regret * 100.0:+.1f}%)")
    print(f"decision ms p50={stats['p50_ms']:g} p99={stats['p99_ms']:g} "
          f"max={stats['max_ms']:g}")
    if args.journal:
        from ._util import atomic_write_text
        atomic_write_text(args.journal, result.journal())
        print(f"wrote decision journal to {args.journal}")
    return 0


def cmd_online_replay(args: argparse.Namespace) -> int:
    """Replay an arrival trace against a running service session —
    byte-identical journals across replays of one trace are the CI
    determinism gate."""
    from .online import read_trace
    from .service.client import ServiceClient, ServiceClientError

    try:
        trace = read_trace(args.arrivals)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.arrivals!r}: {exc}",
              file=sys.stderr)
        return 2
    platform = _platform_from_args(args)
    try:
        with ServiceClient(host=args.host, port=args.port,
                           timeout=args.timeout) as client:
            client.wait_until_ready(timeout=args.wait)
            for k, row in enumerate(trace):
                client.submit_job(
                    row["graph"], session=args.session,
                    release=float(row.get("release", 0.0)),
                    job_id=row.get("job"),
                    platform=platform if k == 0 else None,
                    algorithm=args.algo if k == 0 else None,
                    policy=args.policy if k == 0 else None,
                    flush=(k == len(trace) - 1))
            info = client.session_info(args.session)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = info["summary"]
    print(f"session {args.session!r}: {summary['n_planned']} of "
          f"{summary['n_jobs']} jobs planned in {summary['n_rounds']} "
          f"rounds, makespan {summary['makespan']:g}")
    if args.journal:
        from ._util import atomic_write_text
        atomic_write_text(args.journal, info["journal"])
        print(f"wrote decision journal to {args.journal}")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    from .obs import report

    try:
        events = report.load_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    summary = report.summarize(events)
    print(report.format_report(summary))
    rc = 0
    if summary["orphans"]:
        print(f"error: {len(summary['orphans'])} orphan span(s) — the "
              f"trace is incomplete", file=sys.stderr)
        rc = 1
    if args.expect_cells is not None:
        seen = set(report.cell_indices(events))
        missing = sorted(set(range(args.expect_cells)) - seen)
        if missing:
            shown = ", ".join(str(i) for i in missing[:10])
            print(f"error: {len(missing)} of {args.expect_cells} cells "
                  f"missing from the trace (first: {shown})",
                  file=sys.stderr)
            rc = 1
        else:
            print(f"all {args.expect_cells} cells present in the trace")
    if args.expect_arrivals is not None:
        seen = set(report.arrival_indices(events))
        missing = sorted(set(range(args.expect_arrivals)) - seen)
        if missing:
            shown = ", ".join(str(i) for i in missing[:10])
            print(f"error: {len(missing)} of {args.expect_arrivals} "
                  f"arrivals have no decision span (first: {shown})",
                  file=sys.stderr)
            rc = 1
        else:
            print(f"all {args.expect_arrivals} arrival decisions present "
                  f"in the trace")
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsched",
        description="Memory-aware list scheduling for hybrid platforms "
                    "(Herrmann, Marchal & Robert, 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a task graph")
    p.add_argument("--kind", choices=("daggen", "lu", "cholesky", "dex"),
                   default="daggen")
    p.add_argument("--size", type=int, default=30, help="tasks (daggen)")
    p.add_argument("--width", type=float, default=0.3)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--jumps", type=int, default=5)
    p.add_argument("--tiles", type=int, default=4, help="tiles (lu/cholesky)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write graph JSON here")
    p.add_argument("--dot", action="store_true", help="print DOT to stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("schedule", help="schedule a graph with a heuristic")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--algo", choices=sorted(SCHEDULERS), default="memheft")
    _add_platform_args(p)
    p.add_argument("--gantt", action="store_true",
                   help="ASCII Gantt chart + memory sparklines")
    p.add_argument("--summary", action="store_true")
    p.add_argument("--events", action="store_true",
                   help="time-ordered event log with memory occupancy")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a deterministic span trace (JSONL) of the "
                        "scheduler run here (see 'memsched obs report')")
    p.add_argument("-o", "--output", help="write schedule JSON here")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("validate", help="validate a schedule against a graph")
    p.add_argument("graph")
    p.add_argument("schedule")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bounds", help="print makespan lower bounds")
    p.add_argument("graph")
    _add_platform_args(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ilp", help="solve the exact ILP (small graphs)")
    p.add_argument("graph")
    _add_platform_args(p)
    p.add_argument("--node-limit", type=int, default=20000)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--gantt", action="store_true")
    p.set_defaults(func=cmd_ilp)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("figure", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", choices=sorted(SCALES), default=None)
    p.add_argument("--csv", help="also write the series as CSV here")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="shard the sweep grid over N worker processes "
                        "(0 = one per CPU; identical results for any N)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a deterministic span trace (JSONL) of the "
                        "sweep here — one span per serial cell and per "
                        "map_cells call (see 'memsched obs report')")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("serve", help="run the async scheduling service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123)
    p.add_argument("-w", "--workers", type=int, default=1,
                   help="process-pool size for /batch fan-out "
                        "(1 = schedule in-process)")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="in-memory content-addressed schedule cache "
                        "capacity (entries)")
    p.add_argument("--max-connections", type=int, default=None,
                   help="concurrent-connection cap; extra connections get "
                        "a 503 (default: unlimited)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="close keep-alive connections idle for this many "
                        "seconds (default: never)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit graphs to a running scheduling service")
    p.add_argument("graphs", nargs="+", metavar="graph",
                   help="graph JSON file(s); several go as one /batch")
    p.add_argument("--algo", choices=sorted(SCHEDULERS), default="memheft")
    _add_platform_args(p)
    p.add_argument("--comm-policy", choices=COMM_POLICIES, default="late")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123)
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-request timeout (seconds)")
    p.add_argument("--wait", type=float, default=10.0,
                   help="max seconds to wait for the service to come up")
    p.add_argument("-o", "--output",
                   help="write the returned schedule JSON here (single graph)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a deterministic span trace (JSONL) here; "
                        "the trace id also travels to the service as "
                        "X-Trace-Id")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("online",
                       help="online arrivals: traces, simulation, replay")
    online_sub = p.add_subparsers(dest="online_command", required=True)

    po = online_sub.add_parser(
        "trace", help="generate a seeded Poisson arrival trace (JSONL)")
    po.add_argument("-n", type=int, default=50, help="number of jobs")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--rate", type=float, default=1.0,
                    help="arrival intensity (jobs per unit time)")
    po.add_argument("--tick", type=float, default=0.0,
                    help="quantize releases down to multiples of this "
                         "(0 = exact arrival times)")
    po.add_argument("--ident", default="poisson",
                    help="seed namespace (distinct idents draw distinct "
                         "streams for the same --seed)")
    po.add_argument("--size", type=int, default=12, help="tasks per job")
    po.add_argument("--width", type=float, default=0.4)
    po.add_argument("--density", type=float, default=0.5)
    po.add_argument("--jumps", type=int, default=3)
    po.add_argument("--zero-release", action="store_true",
                    help="force every release to 0 (the offline-identity "
                         "workload)")
    po.add_argument("-o", "--output", required=True,
                    help="write the trace JSONL here")
    po.set_defaults(func=cmd_online_trace)

    po = online_sub.add_parser(
        "run", help="simulate an arrival trace on one session timeline")
    po.add_argument("arrivals", metavar="TRACE",
                    help="arrival trace JSONL (see 'memsched online trace')")
    po.add_argument("--algo", choices=sorted(ENGINE_OPTIONED),
                    default="memheft")
    po.add_argument("--policy", default="immediate", metavar="POLICY",
                    help="arrival policy: immediate | batched:Q | replan:W")
    po.add_argument("--comm-policy", choices=COMM_POLICIES, default="late")
    _add_platform_args(po)
    po.add_argument("--journal", default=None, metavar="FILE",
                    help="write the deterministic decision journal here")
    po.add_argument("--trace", default=None, metavar="FILE",
                    help="write a span trace (arrival/plan/decision spans; "
                         "see 'memsched obs report --expect-arrivals')")
    po.set_defaults(func=cmd_online_run)

    po = online_sub.add_parser(
        "replay",
        help="replay an arrival trace into a running service session")
    po.add_argument("arrivals", metavar="TRACE")
    po.add_argument("--session", default="default",
                    help="service session name (a fresh name replays onto "
                         "a fresh timeline)")
    po.add_argument("--algo", choices=sorted(ENGINE_OPTIONED),
                    default="memheft")
    po.add_argument("--policy", default="immediate", metavar="POLICY")
    _add_platform_args(po)
    po.add_argument("--host", default="127.0.0.1")
    po.add_argument("--port", type=int, default=8123)
    po.add_argument("--timeout", type=float, default=60.0)
    po.add_argument("--wait", type=float, default=10.0,
                    help="max seconds to wait for the service to come up")
    po.add_argument("--journal", default=None, metavar="FILE",
                    help="write the session's decision journal here "
                         "(byte-identical across replays of one trace)")
    po.set_defaults(func=cmd_online_replay)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pr = obs_sub.add_parser(
        "report", help="summarize a --trace span file (durations per span "
                       "name, roots, orphans)")
    pr.add_argument("trace", help="trace JSONL written by --trace FILE")
    pr.add_argument("--expect-cells", type=int, default=None, metavar="N",
                    help="fail (exit 1) unless the trace contains a cell "
                         "span for every grid index 0..N-1")
    pr.add_argument("--expect-arrivals", type=int, default=None,
                    metavar="N",
                    help="fail (exit 1) unless the trace contains a "
                         "decision span for every arrival index 0..N-1")
    pr.set_defaults(func=cmd_obs_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
