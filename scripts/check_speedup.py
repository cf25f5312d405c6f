#!/usr/bin/env python
"""CI speedup gate: assert the parallel paths actually beat serial.

Reads the ``BENCH_*.json`` reports the benchmarks emit and enforces the
targets that a single-core dev container can never demonstrate (the
ROADMAP's long-open "needs a multi-core runner" item):

* ``BENCH_scaling.json`` — the ``--jobs N`` sweep must be at least
  ``--min-speedup`` times faster than serial, with identical cells.
* ``BENCH_service.json`` — the ``/batch`` workers path must beat the
  serial batch by the same factor, with identical results.
* ``BENCH_distributed.json`` (optional) — the multi-host sweep must at
  least beat ``--min-distributed`` (HTTP + wire encoding overhead makes
  this gate softer) and be cell-identical.
* ``BENCH_faults.json`` — checkpoint journaling must cost at most
  ``--max-checkpoint-overhead`` percent on a fault-free sweep, fault
  plans must be bit-reproducible, and every chaos goodput run must have
  stayed byte-identical to the serial reference.
* ``BENCH_obs.json`` — full observability (metrics + tracing) must cost
  at most ``--max-obs-overhead`` percent on the serial sweep with
  identical results, traces must be structurally deterministic, and the
  live ``/metrics`` scrape must be valid exposition accounting for
  every request.
* ``BENCH_online.json`` — the immediate-greedy online policy must keep
  p99 per-arrival decision latency under ``--max-online-p99-ms`` and
  makespan regret against the clairvoyant union schedule under
  ``--max-online-regret`` percent, with byte-identical journals across
  replays and the zero-release offline identity intact; and per policy
  of its ``session_length`` section, a 10x longer session may cost at
  most 1.25x the work per round and 1.5x the p50 decision latency (p99
  is reported, not gated).

Exit status 0 only when every present report passes; failures list every
violated gate.  Usage::

    python scripts/check_speedup.py --scaling BENCH_scaling.json \
        --service BENCH_service.json --distributed BENCH_distributed.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


#: One gate per report kind: which section of the JSON to read, which
#: identity flag must hold, how to label the OK/failure lines, and how to
#: describe the parallel configuration from the report's fields.
GATES = {
    "scaling": {
        "section": "sweep",
        "identical_key": "identical_cells",
        "label": "scaling  sweep   ",
        "identity_problem": "parallel sweep cells differ from serial",
        "config": lambda rep, sec: (f"jobs={sec['jobs']} on "
                                    f"{rep.get('cpu_count')} CPUs"),
        "hint": " — run bench_scaling.py with --jobs N",
    },
    "service": {
        "section": "batch",
        "identical_key": "identical_results",
        "label": "service  /batch  ",
        "identity_problem": "workers batch differs from serial batch",
        "config": lambda rep, sec: (f"workers={sec['workers']} on "
                                    f"{rep.get('cpu_count')} CPUs"),
        "hint": "",
    },
    "distributed": {
        "section": "sweep",
        "identical_key": "identical_cells",
        "label": "distributed sweep",
        "identity_problem": "distributed cells differ from serial",
        "config": lambda rep, sec: (f"{rep.get('n_hosts')} hosts x "
                                    f"{rep.get('workers_per_host')} "
                                    f"workers"),
        "hint": "",
    },
}


def check_report(kind: str, path: str, min_speedup: float) -> list[str]:
    """Apply one gate; returns the violated-gate messages (empty = pass,
    with the OK line printed — only when *every* check of the gate held)."""
    gate = GATES[kind]
    report = json.loads(Path(path).read_text())
    section = report.get(gate["section"])
    if section is None:
        return [f"{path}: no {gate['section']!r} section{gate['hint']}"]
    problems = []
    if not section.get(gate["identical_key"]):
        problems.append(f"{path}: {gate['identity_problem']}")
    config = gate["config"](report, section)
    if section["speedup"] < min_speedup:
        problems.append(
            f"{path}: {gate['label'].strip()} speedup "
            f"{section['speedup']:.2f}x < required {min_speedup:g}x "
            f"({config})")
    if not problems:
        print(f"{gate['label']}: {section['speedup']:.2f}x >= "
              f"{min_speedup:g}x with {config} OK")
    return problems


def check_faults_report(path: str, max_overhead_pct: float) -> list[str]:
    """Gate ``BENCH_faults.json``: checkpoint journaling must cost at most
    ``max_overhead_pct`` percent on a fault-free sweep with identical
    results; fault plans must be bit-reproducible (stable digest, repeating
    event sequence, repeating live injections); and every goodput chaos run
    must have produced results identical to serial."""
    report = json.loads(Path(path).read_text())
    problems = []

    ck = report.get("checkpoint")
    if ck is None:
        problems.append(f"{path}: no 'checkpoint' section — run "
                        "bench_faults.py")
    else:
        if not ck.get("identical_results"):
            problems.append(f"{path}: checkpointed sweep differs from "
                            "plain run")
        if ck["overhead_pct"] > max_overhead_pct:
            problems.append(
                f"{path}: checkpoint overhead {ck['overhead_pct']:+.2f}% "
                f"> allowed {max_overhead_pct:g}%")

    rep = report.get("reproducibility")
    if rep is None:
        problems.append(f"{path}: no 'reproducibility' section")
    else:
        for flag in ("digest_stable", "events_repeat", "injections_repeat",
                     "identical_results"):
            if not rep.get(flag):
                problems.append(f"{path}: reproducibility.{flag} is false "
                                "— fault plans are not bit-reproducible")

    goodput = report.get("goodput")
    if goodput is not None:
        for row in goodput.get("plans", ()):
            if not row.get("identical_results"):
                problems.append(
                    f"{path}: goodput[{row.get('plan')}] diverged from "
                    "the serial reference under injected faults")

    if not problems:
        overhead = ck["overhead_pct"]
        n_plans = len((goodput or {}).get("plans", ()))
        print(f"faults   ckpt+chaos: overhead {overhead:+.2f}% <= "
              f"{max_overhead_pct:g}%, plans reproducible, "
              f"{n_plans} chaos plans identical to serial OK")
    return problems


def check_obs_report(path: str, max_overhead_pct: float) -> list[str]:
    """Gate ``BENCH_obs.json``: instrumentation overhead on the serial
    sweep must stay under ``max_overhead_pct`` percent with identical
    results; two traced runs must repeat the same span structure; and
    the live scrape must be valid exposition covering every request."""
    report = json.loads(Path(path).read_text())
    problems = []

    overhead = report.get("overhead")
    if overhead is None:
        problems.append(f"{path}: no 'overhead' section — run "
                        "bench_obs.py")
    else:
        if not overhead.get("identical_results"):
            problems.append(f"{path}: observed sweep differs from "
                            "plain run")
        if overhead["overhead_pct"] > max_overhead_pct:
            problems.append(
                f"{path}: observability overhead "
                f"{overhead['overhead_pct']:+.2f}% > allowed "
                f"{max_overhead_pct:g}%")

    determinism = report.get("determinism")
    if determinism is None:
        problems.append(f"{path}: no 'determinism' section")
    else:
        for flag in ("structure_repeats", "identical_results"):
            if not determinism.get(flag):
                problems.append(f"{path}: determinism.{flag} is false "
                                "— traces are not structurally "
                                "deterministic")

    scrape = report.get("scrape")
    if scrape is None:
        problems.append(f"{path}: no 'scrape' section")
    else:
        for flag in ("valid_exposition", "requests_accounted"):
            if not scrape.get(flag):
                problems.append(f"{path}: scrape.{flag} is false — "
                                "/metrics exposition is broken")

    if not problems:
        print(f"obs      overhead: {overhead['overhead_pct']:+.2f}% <= "
              f"{max_overhead_pct:g}%, traces deterministic, scrape "
              f"valid ({scrape['n_samples']} samples) OK")
    return problems


#: Growth allowed over a 10x longer online session: work per planning
#: round (union tasks plus replays) and p50 decision latency.
MAX_ONLINE_WORK_RATIO = 1.25
MAX_ONLINE_P50_RATIO = 1.5


def check_online_report(path: str, max_p99_ms: float,
                        max_regret_pct: float) -> list[str]:
    """Gate ``BENCH_online.json``: the immediate-greedy policy must keep
    per-arrival p99 decision latency under ``max_p99_ms`` and makespan
    regret against the clairvoyant union schedule under
    ``max_regret_pct`` percent; two replays of the stream must have
    produced byte-identical decision journals; the zero-release
    identity against the offline heuristic must hold; and per policy,
    the longest session's work per round and p50 latency may be at most
    ``MAX_ONLINE_WORK_RATIO`` / ``MAX_ONLINE_P50_RATIO`` times the
    shortest's."""
    report = json.loads(Path(path).read_text())
    problems = []

    rows = report.get("policies") or []
    immediate = next((r for r in rows if r.get("policy") == "immediate"),
                     None)
    if immediate is None:
        problems.append(f"{path}: no immediate-policy row — run "
                        "bench_online.py")
    else:
        if immediate["p99_ms"] > max_p99_ms:
            problems.append(
                f"{path}: immediate p99 decision latency "
                f"{immediate['p99_ms']:g}ms > allowed {max_p99_ms:g}ms "
                f"(n={immediate.get('n_arrivals')} arrivals)")
        if immediate["regret_pct"] > max_regret_pct:
            problems.append(
                f"{path}: immediate makespan regret "
                f"{immediate['regret_pct']:+.2f}% > allowed "
                f"{max_regret_pct:g}%")

    determinism = report.get("determinism")
    if determinism is None:
        problems.append(f"{path}: no 'determinism' section")
    elif not determinism.get("identical_journal"):
        problems.append(f"{path}: two replays produced different "
                        "decision journals — online scheduling is not "
                        "deterministic")

    identity = report.get("identity")
    if identity is None:
        problems.append(f"{path}: no 'identity' section")
    elif not identity.get("offline_identical"):
        problems.append(f"{path}: zero-release online placements differ "
                        "from the offline heuristic")

    if not problems:
        print(f"online   immediate: p99 {immediate['p99_ms']:g}ms <= "
              f"{max_p99_ms:g}ms, regret {immediate['regret_pct']:+.2f}% "
              f"<= {max_regret_pct:g}%, journals identical, "
              f"offline identity holds OK")
    return problems + check_session_length(path, report)


def check_session_length(path: str, report: dict) -> list[str]:
    """Per-round cost must stay flat in session length: per policy, the
    longest session against the shortest."""
    rows = report.get("session_length")
    if not rows:
        return [f"{path}: no 'session_length' section — run "
                "bench_online.py"]
    problems = []
    for policy in dict.fromkeys(r["policy"] for r in rows):
        mine = sorted((r for r in rows if r["policy"] == policy),
                      key=lambda r: r["n_arrivals"])
        short, long = mine[0], mine[-1]
        if short is long:
            problems.append(f"{path}: session_length has one length only "
                            f"for {policy}")
            continue
        work = long["work_per_round"] / short["work_per_round"]
        p50 = long["p50_ms"] / short["p50_ms"]
        span = f"{policy} at {long['n_arrivals']} vs {short['n_arrivals']}"
        if work > MAX_ONLINE_WORK_RATIO:
            problems.append(f"{path}: {span} arrivals: work per round "
                            f"ratio {work:.3f} > allowed "
                            f"{MAX_ONLINE_WORK_RATIO:g}")
        if p50 > MAX_ONLINE_P50_RATIO:
            problems.append(f"{path}: {span} arrivals: p50 latency ratio "
                            f"{p50:.3f} > allowed {MAX_ONLINE_P50_RATIO:g}")
        if work <= MAX_ONLINE_WORK_RATIO and p50 <= MAX_ONLINE_P50_RATIO:
            print(f"online   session {span}: work/round x{work:.3f} <= "
                  f"{MAX_ONLINE_WORK_RATIO:g}, p50 x{p50:.3f} <= "
                  f"{MAX_ONLINE_P50_RATIO:g} (p99 x"
                  f"{long['p99_ms'] / short['p99_ms']:.2f}, not gated) OK")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--scaling", metavar="PATH",
                        help="BENCH_scaling.json to gate")
    parser.add_argument("--service", metavar="PATH",
                        help="BENCH_service.json to gate")
    parser.add_argument("--distributed", metavar="PATH",
                        help="BENCH_distributed.json to gate")
    parser.add_argument("--faults", metavar="PATH",
                        help="BENCH_faults.json to gate")
    parser.add_argument("--obs", metavar="PATH",
                        help="BENCH_obs.json to gate")
    parser.add_argument("--online", metavar="PATH",
                        help="BENCH_online.json to gate")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required parallel-vs-serial factor for the "
                             "in-process paths (default: 1.5)")
    parser.add_argument("--min-distributed", type=float, default=1.2,
                        help="required factor for the multi-host sweep "
                             "(softer: pays HTTP + wire overhead)")
    parser.add_argument("--max-checkpoint-overhead", type=float,
                        default=5.0,
                        help="allowed checkpoint-journal overhead in "
                             "percent on a fault-free sweep (default: 5)")
    parser.add_argument("--max-obs-overhead", type=float, default=3.0,
                        help="allowed full-observability overhead in "
                             "percent on the serial sweep (default: 3)")
    parser.add_argument("--max-online-p99-ms", type=float, default=50.0,
                        help="allowed immediate-policy p99 per-arrival "
                             "decision latency in ms (default: 50)")
    parser.add_argument("--max-online-regret", type=float, default=25.0,
                        help="allowed immediate-policy makespan regret "
                             "in percent against the clairvoyant union "
                             "schedule (default: 25)")
    args = parser.parse_args(argv)
    if not (args.scaling or args.service or args.distributed
            or args.faults or args.obs or args.online):
        parser.error("nothing to check: pass --scaling/--service/"
                     "--distributed/--faults/--obs/--online")

    problems: list[str] = []
    if args.scaling:
        problems += check_report("scaling", args.scaling, args.min_speedup)
    if args.service:
        problems += check_report("service", args.service, args.min_speedup)
    if args.distributed:
        problems += check_report("distributed", args.distributed,
                                 args.min_distributed)
    if args.faults:
        problems += check_faults_report(args.faults,
                                        args.max_checkpoint_overhead)
    if args.obs:
        problems += check_obs_report(args.obs, args.max_obs_overhead)
    if args.online:
        problems += check_online_report(args.online, args.max_online_p99_ms,
                                        args.max_online_regret)
    for p in problems:
        print(f"SPEEDUP GATE FAILED: {p}", file=sys.stderr)
    if not problems:
        print("all speedup gates passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
