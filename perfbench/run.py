"""End-to-end benchmark of the memsched library, one workload per run.

    python3 perfbench/run.py --workload offline_large --seed 3 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced.  With ``--trace 1`` the
workload runs twice over identical inputs, untraced then traced, and the
metrics are the per-layer ones from the traced pass plus the tracing
overhead.  Lines before it are a human-readable report.

Each workload's op list is fixed and sized for ``--seconds 20`` (20-30 s
of op time at the commit that defined the benchmark, 2-vCPU x86
container, Python 3.11); other values are noted but do not rescale it.  The
op count never depends on the clock, so two commits are always timed on
identical work.  Op times are reference seconds: run time scaled by the
host's speed at the time (see clock.py).

Inputs are a function of ``seed % FAMILIES``: every family has per-op output
digests recorded in ``golden.json`` (see record.py), and every op's output is
checked against them outside its timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as platform_mod
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from clock import HostSpeed, clocks, run_time
from stats import beyond, nearest_rank, tail_percentile
from tracer import Tracer, layer_metrics, layer_unit

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAMILIES = 10
#: The op lists are sized for this many seconds of op time.
SIZED_FOR = 20
#: Op run time after which the next op is preceded by a full collection.
#: Before every op, it took a millisecond: ten times a cache hit.
GC_INTERVAL_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s", "tasks_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "scaling_ratio": "ratio",
    "history_ratio": "ratio", "makespan_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class SetupClock:
    """Set-up time: one-off steps once, repeated units by their median.

    Set-up is made of units of a few kinds (one graph with its reference
    run, one arrival stream, ...).  ``setup_s`` sums the one-off steps and,
    per kind, the unit count times the median unit time, so one unit that
    a neighbour process slowed down does not move it.  With ``speed`` set,
    times are reference seconds (see clock.py); without it, run time.
    """

    def __init__(self, speed=None) -> None:
        self.speed = speed
        self.once: dict = {}
        self.units: dict = {}

    @contextmanager
    def unit(self, kind: str, once: bool = False):
        if self.speed is not None:
            self.speed.before()
        start = clocks()
        yield
        dt = run_time(start)
        if self.speed is not None:
            dt *= self.speed.scale(dt)
        if once:
            self.once[kind] = self.once.get(kind, 0.0) + dt
        else:
            self.units.setdefault(kind, []).append(dt)

    def total(self) -> float:
        return sum(self.once.values()) + sum(
            len(v) * statistics.median(v) for v in self.units.values())

    def breakdown(self) -> str:
        parts = [f"{k} {v:.2f}" for k, v in self.once.items()]
        parts += [f"{k} {len(v)}x{statistics.median(v):.2f}"
                  for k, v in self.units.items()]
        return ", ".join(parts)


class Recorder:
    """Times ops, and counts every output that misses its expected digest.

    With ``speed`` set, op times are reference seconds (see clock.py);
    without it, run time.  With ``record`` set, expected digests are not
    checked but collected into it (record.py builds golden.json that way).
    """

    def __init__(self, tracer=None, record=None, speed=None) -> None:
        self.tracer = tracer
        self.record = record
        self.speed = speed
        self.attempted = 0
        self.failures: list = []
        self.wall = 0.0      # summed wall time of the timed ops
        self.run = 0.0       # ... and their run time
        self.since_gc = GC_INTERVAL_S

    def time(self, label, fn, *args):
        """``(result, exception, seconds)`` of one op."""
        if self.since_gc >= GC_INTERVAL_S:
            gc.collect()
            self.since_gc = 0.0
        if self.speed is not None:
            self.speed.before()
        self.attempted += 1
        tracer = self.tracer
        exc = result = None
        if tracer is not None:
            tracer.begin_op()
        start = clocks()
        try:
            result = fn(*args)
        except Exception as err:   # noqa: BLE001 - classified by the caller
            exc = err
        seconds = run_time(start)
        self.wall += time.perf_counter() - start[0]
        self.run += seconds
        self.since_gc += seconds
        if self.speed is not None:
            seconds *= self.speed.scale(seconds)
        if tracer is not None:
            seconds = tracer.end_op(label)
        return result, exc, seconds

    def fail(self, label, reason) -> None:
        self.failures.append((label, reason))

    def expect(self, label, expected, actual) -> bool:
        if self.record is not None:
            self.record[label] = actual
            return True
        if expected != actual:
            self.fail(label, f"output digest {actual}, recorded {expected}")
            return False
        return True


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=SIZED_FOR)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment(work: Path) -> None:
    """Library import path, a fresh kernel build directory for this run,
    and no instrumentation or fault injection from the caller's env."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["MEMSCHED_CC_CACHE"] = str(work / "cc")
    for var in ("MEMSCHED_OBS", "MEMSCHED_FAULT_PLAN"):
        os.environ.pop(var, None)


def end_to_end(outcome, setup_s: float) -> tuple:
    m = outcome.end_to_end()
    n = len(outcome.latency)
    q = tail_percentile(n)
    if q is None:
        raise SystemExit(f"perfbench: {n} latency samples, too few for a "
                         f"tail percentile")
    m["latency_tail_ms"] = nearest_rank(outcome.latency, q) * 1e3
    m["setup_s"] = setup_s
    m["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m, f"p{q} of {n} samples, {beyond(n, q)} beyond it"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no library sources at {ROOT / 'src'}")
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    speed = HostSpeed()
    clock = SetupClock(speed)
    with clock.unit("imports", once=True):
        prepare_environment(work)
        import workloads
        from repro import obs
        from repro.scheduling.kernel import resolve_backend
    if obs.active() is not None:
        raise SystemExit("perfbench: repro.obs is active; the benchmark "
                         "measures the uninstrumented program")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    if args.seconds != SIZED_FOR:
        print(f"# note: op lists are sized for {SIZED_FOR} s; --seconds "
              f"{args.seconds} does not rescale them")
    family = args.seed % FAMILIES
    golden = json.loads((HERE / "golden.json").read_text())
    workload = workloads.WORKLOADS[args.workload](
        family, golden[args.workload])
    with clock.unit("warm_up", once=True):
        workload.warm_up()   # builds the C kernel, if it is used
    workload.setup(clock)
    gc.collect()
    gc.freeze()   # set-up objects leave the collector's scans
    setup_wall = time.perf_counter() - T_START

    backend = type(resolve_backend()).__name__
    print(f"# workload {args.workload}  seed {args.seed} (family {family})  "
          f"nproc {os.cpu_count()}  python {platform_mod.python_version()}  "
          f"kernel {backend}")
    print(f"# set-up: {clock.total():.3f} s by units, {setup_wall:.3f} s "
          f"wall to the first op; {clock.breakdown()}")

    if args.trace:
        plain = Recorder()
        workload.run(plain)
        tracer = Tracer().install()
        rec = Recorder(tracer)
        try:
            outcome = workload.run(rec)
        finally:
            tracer.uninstall()
        rec.failures += plain.failures
        rec.attempted += plain.attempted
        # Spans are wall time, so the overhead is against untraced wall.
        metrics = layer_metrics(tracer, outcome.arrivals, plain.wall)
        units = {name: layer_unit(name) for name in metrics}
        out_path = (ROOT / ".perfbench_out" /
                    f"trace-{args.workload}-seed{args.seed}.jsonl")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(out_path)
        print(f"# traced {plain.wall + metrics['trace.overhead_s']:.3f} s "
              f"vs untraced {plain.wall:.3f} s wall over {len(tracer.ops)} "
              f"ops; spans in {out_path}")
        for point in tracer.missing:
            print(f"# missing patch point: {point}")
    else:
        rec = Recorder(speed=speed)
        t0 = time.perf_counter()
        outcome = workload.run(rec)
        print(f"# {rec.attempted} ops: {outcome.op_s:.3f} reference s, "
              f"{rec.run:.3f} s run time, {rec.wall:.3f} s wall, "
              f"{time.perf_counter() - t0:.3f} s with checks and gc")
        print(f"# host speed: {speed.summary()}")
        metrics, tail_note = end_to_end(outcome, clock.total())
        units = END_TO_END_UNITS
        print(f"# latency_tail_ms is the {tail_note}")

    failed = len(rec.failures)
    report = dict(metrics, error_frac=failed / rec.attempted)
    for name, value in report.items():
        # error_frac and feasible_frac are printed, not gated: both read
        # a constant (0 and, for most workloads, 1) on a correct commit.
        print(f"{name:32s} {value:14.6g} {units.get(name, 'ratio')}")
    metrics = {k: v for k, v in metrics.items() if k in units}
    for label, reason in rec.failures[:20]:
        print(f"# FAILED {label}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
