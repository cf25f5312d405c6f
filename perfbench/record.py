"""Record the expected per-op output digests into golden.json.

    python3 perfbench/record.py [--workload NAME] [--families 0,1,...]

``--families`` narrows ``online_replan`` only; the other workloads are
recorded whole.

Run once at the commit that defines the benchmark.  A later commit whose
outputs differ fails the benchmark's checks (``failed`` > 0) on purpose:
schedules, response bodies and journals are meant to stay bit-identical.

For ``offline_large`` this also picks the graphs: daggen seeds are tried
in order and a graph is kept only when all three heuristics fit it, as
relabelled for every family, within 0.8x of HEFT's per-class peaks.  About
one random n=2000 graph in five fits none of them, and an infeasible op
stops four times sooner, so letting feasibility vary with the seed would
swing every timing metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from itertools import count
from pathlib import Path

import run


def record_offline(workloads) -> dict:
    from repro.io.json_io import schedule_to_dict
    from repro.scheduling.registry import SCHEDULERS
    from repro.scheduling.state import InfeasibleScheduleError

    w = workloads.OfflineLarge
    graphs = {}
    digests = {str(f): {} for f in range(run.FAMILIES)}
    for n, wanted in w.GRAPHS.items():
        seeds = graphs[str(n)] = []
        for k in count():
            gseed = n * 10000 + k
            found = {}
            try:
                for family in range(run.FAMILIES):
                    graph = w.graph(n, gseed, family)
                    _, bounded = w.reference(graph)
                    for algo, is_bounded in w.CONFIGS:
                        schedule = SCHEDULERS[algo](
                            graph, bounded if is_bounded else w.PLATFORM)
                        found[str(family), w.key(n, len(seeds), algo,
                                                 is_bounded)] = \
                            workloads.digest(schedule_to_dict(schedule))
            except InfeasibleScheduleError:
                continue
            seeds.append(gseed)
            for (family, key), value in found.items():
                digests[family][key] = value
            print(f"offline: n={n} graph seed {gseed}", file=sys.stderr)
            if len(seeds) == wanted:
                break
    return {"graphs": graphs, "families": digests}


def record_service(workloads) -> dict:
    from repro.service.app import ServiceApp

    w = workloads.ServiceMixed
    app = ServiceApp(workers=1, cache_size=8192)
    universe = {}
    for key, (body, *_rest) in w.requests(w.instances()).items():
        status, _, resp = app.handle("POST", "/schedule", body)
        universe[key] = [status, workloads.digest(resp)]
    jobs = {}
    for k, (body, _) in enumerate(w.job_bodies()):
        _, _, resp = app.handle("POST", "/jobs", body)
        resp = json.loads(resp)
        resp.pop("decision_ms", None)
        jobs[f"job/{k}"] = workloads.digest(resp)
    _, _, body = app.handle("GET", f"/jobs?session={w.SESSION}", b"")
    for k, row in enumerate(json.loads(body)["journal"].splitlines()[1:]):
        jobs[f"journal/{k}"] = workloads.digest(row.encode())
    app.close()
    return {"universe": universe, "jobs": jobs}


def record_online(workloads, family: int) -> dict:
    recorded: dict = {}
    w = workloads.OnlineReplan(family, {"families": {str(family): {}}})
    w.setup(run.SetupClock())
    w.run(run.Recorder(record=recorded))
    return recorded


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--families", default=None,
                   help="comma-separated families (default: all)")
    args = p.parse_args(argv)
    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        record(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def record(args, work: Path) -> None:
    run.prepare_environment(work)
    import workloads

    path = run.HERE / "golden.json"
    families = (range(run.FAMILIES) if args.families is None else
                [int(f) for f in args.families.split(",")])
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name == "service_mixed":
            entry = record_service(workloads)
        elif name == "offline_large":
            entry = record_offline(workloads)
        else:
            entry = load(path).get(name, {"families": {}})
            for family in families:
                entry["families"][str(family)] = record_online(workloads,
                                                               family)
        # Re-read: recorders of other workloads may run at the same time.
        golden = load(path)
        golden[name] = entry
        path.write_text(json.dumps(golden, sort_keys=True, indent=0) + "\n")


if __name__ == "__main__":
    sys.exit(main())
