"""The three workloads: ``offline_large``, ``service_mixed``, ``online_replan``.

Each is a closed loop with one caller in one process.  A workload is built
from ``(family, golden)``: its inputs are a function of the family alone
(``seed % FAMILIES``, see run.py), and ``golden`` holds the per-op output
digests recorded at the commit that defined the benchmark (record.py).

``setup(clock)`` prepares inputs and reference runs under the set-up clock.
``run(rec)`` makes one pass over the ops, timing each through ``rec``; every
check on an op's output happens outside its timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics

from repro.core.platform import Platform
from repro.core.validation import ScheduleError, validate_schedule
from repro.dags.daggen import random_dag
from repro.dags.datasets import large_rand_set, small_rand_set
from repro.dags.linalg import cholesky_dag, lu_dag
from repro.experiments.figures import MIRAGE_PLATFORM, RAND_PLATFORM
from repro.io.json_io import (
    canonical_json,
    graph_from_dict,
    graph_to_dict,
    platform_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.online import (
    OnlineJob,
    OnlineSession,
    clairvoyant_makespan,
    poisson_trace,
)
from repro.scheduling import heft
from repro.scheduling.registry import SCHEDULERS
from repro.scheduling.state import InfeasibleScheduleError
from repro.service.app import ServiceApp

from stats import geomean

ALGORITHMS = ("memheft", "memminmin", "memsufferage")


def digest(data) -> str:
    """Short sha256 of bytes or of a JSON-able value's canonical form."""
    if not isinstance(data, bytes):
        data = canonical_json(data).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:20]


def relabel(data: dict, rng: random.Random) -> dict:
    """A graph as ``graph_to_dict`` writes it, with task ids permuted and
    tasks and edges in shuffled order: the same graph up to the names of
    its tasks and the order it is built in, so up to tie orders."""
    ids = [t["id"] for t in data["tasks"]]
    new_ids = dict(zip(ids, rng.sample(range(len(ids)), len(ids))))
    tasks = [dict(t, id=new_ids[t["id"]]) for t in data["tasks"]]
    edges = [dict(e, src=new_ids[e["src"]], dst=new_ids[e["dst"]])
             for e in data["edges"]]
    rng.shuffle(tasks)
    rng.shuffle(edges)
    return dict(data, tasks=tasks, edges=edges)


class Outcome:
    """What a pass measured: op times and the work the ops did."""

    def __init__(self) -> None:
        self.latency: list = []       # seconds, ops the percentiles cover
        self.history: list = []       # (half, seconds) for history_ratio
        self.op_s = 0.0               # summed time of every timed op
        self.tasks = 0                # tasks placed in returned schedules
        self.ratios: list = []        # makespan / reference, feasible ops
        self.valid = 0                # ops on valid input
        self.feasible = 0             # ...that returned a schedule
        self.scale = [0.0, 0.0]       # summed time at size 2s, at size s
        self.arrivals = 0

    def end_to_end(self) -> dict:
        first = [s for h, s in self.history if h == 0]
        second = [s for h, s in self.history if h == 1]
        return {
            "tasks_per_s": self.tasks / self.op_s,
            "latency_p50_ms": statistics.median(self.latency) * 1e3,
            "makespan_ratio": geomean(self.ratios),
            "feasible_frac": self.feasible / self.valid,
            "scaling_ratio": self.scale[0] / self.scale[1],
            "history_ratio": statistics.fmean(second)
            / statistics.fmean(first),
        }


# ----------------------------------------------------------------------
# offline_large
# ----------------------------------------------------------------------
class OfflineLarge:
    """MemHEFT, MemMinMin and MemSufferage as library calls on daggen
    graphs at n=2000 (and an n=1000 companion for scaling_ratio),
    unbounded and bounded at 0.8x HEFT's per-class peaks.

    The daggen graphs are fixed (record.py picks them) and a seed
    relabels them, so seeds differ in inputs and tie orders, not in the
    size of the work: the same daggen parameters give n=2000 graphs whose
    op times differ by up to 1.5x, which made every timing metric follow
    the seed.
    """

    name = "offline_large"
    PLATFORM = Platform(2, 2)
    #: Graphs per size; n=1000 is the scaling_ratio companion.
    GRAPHS = {2000: 2, 1000: 1}
    BOUND = 0.8
    CONFIGS = tuple((algo, bounded) for algo in ALGORITHMS
                    for bounded in (False, True))
    #: ``(half, n, graph index, configs)`` in op order.  Each half runs
    #: every graph with every config, so history_ratio compares the same
    #: work.
    ROUNDS = ((0, 2000, 0, CONFIGS), (0, 1000, 0, CONFIGS[::-1]),
              (0, 2000, 1, CONFIGS[::-1]),
              (1, 2000, 0, CONFIGS[::-1]), (1, 1000, 0, CONFIGS),
              (1, 2000, 1, CONFIGS))

    def __init__(self, family: int, golden: dict) -> None:
        self.family = family
        self.base = golden["graphs"]
        self.digests = golden["families"][str(family)]

    @classmethod
    def graph(cls, n: int, graph_seed: int, family: int):
        """The daggen graph of ``graph_seed`` as relabelled for
        ``family``."""
        data = graph_to_dict(random_dag(size=n, width=0.5, rng=graph_seed))
        rng = random.Random(f"offline_large:{family}:{graph_seed}")
        return graph_from_dict(relabel(data, rng))

    @classmethod
    def reference(cls, graph):
        """Unbounded HEFT makespan and the 0.8x-peaks platform."""
        ref = heft(graph, cls.PLATFORM)
        bounded = cls.PLATFORM.with_capacities(
            [cls.BOUND * p for p in ref.meta["peaks"]])
        return ref.makespan, bounded

    @staticmethod
    def key(n: int, gi: int, algo: str, bounded: bool) -> str:
        return f"{n}/{gi}/{algo}/{'b' if bounded else 'u'}"

    def warm_up(self) -> None:
        graph = random_dag(size=60, width=0.5, rng=1)
        _, bounded = self.reference(graph)
        for algo, is_bounded in self.CONFIGS:
            try:
                SCHEDULERS[algo](graph, bounded if is_bounded
                                 else self.PLATFORM)
            except InfeasibleScheduleError:
                pass

    def setup(self, clock) -> None:
        self.inputs = {}
        for n in self.GRAPHS:
            for gi, gseed in enumerate(self.base[str(n)]):
                with clock.unit(f"graph{n}"):
                    graph = self.graph(n, gseed, self.family)
                    graph.flatten()   # cached on the graph: not op work
                    self.inputs[n, gi] = (graph, *self.reference(graph))

    def run(self, rec) -> Outcome:
        out = Outcome()
        per_config = {}
        seen = {}
        for half, n, gi, configs in self.ROUNDS:
            graph, ref_makespan, bounded_platform = self.inputs[n, gi]
            for algo, bounded in configs:
                platform = bounded_platform if bounded else self.PLATFORM
                key = self.key(n, gi, algo, bounded)
                schedule, exc, seconds = rec.time(
                    key, SCHEDULERS[algo], graph, platform)
                out.op_s += seconds
                out.valid += 1
                per_config.setdefault((n, algo, bounded), []).append(seconds)
                if n == 2000:
                    out.latency.append(seconds)
                    out.history.append((half, seconds))
                self.check(rec, out, key, graph, platform, schedule, exc,
                           ref_makespan, seen)
        mean = {k: statistics.fmean(v) for k, v in per_config.items()}
        for algo, bounded in self.CONFIGS:
            out.scale[0] += mean[2000, algo, bounded]
            out.scale[1] += mean[1000, algo, bounded]
        return out

    def check(self, rec, out, key, graph, platform, schedule, exc,
              ref_makespan, seen=None) -> None:
        """Checks one op's result.  ``seen`` maps keys to the digest of a
        schedule already validated for them: a repeat that matches it is
        not validated again."""
        if isinstance(exc, InfeasibleScheduleError):
            rec.expect(key, self.digests.get(key), "infeasible")
            return
        if exc is not None:
            rec.fail(key, f"raised {type(exc).__name__}: {exc}")
            return
        actual = digest(schedule_to_dict(schedule))
        if seen is None or seen.get(key) != actual:
            try:
                validate_schedule(graph, platform, schedule)
            except ScheduleError as err:
                rec.fail(key, f"invalid schedule: {err}")
                return
            if seen is not None:
                seen[key] = actual
        if rec.expect(key, self.digests.get(key), actual):
            out.feasible += 1
            out.tasks += graph.n_tasks
            out.ratios.append(schedule.makespan / ref_makespan)


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
#: ``benchmarks/bench_online.py``'s platform: roomy enough that every job
#: of an arrival stream is placed.
JOBS_PLATFORM = Platform(n_blue=2, n_red=2, mem_blue=20000, mem_red=20000)

MALFORMED = (
    ("/schedule", b"{"),
    ("/schedule", b"[]"),
    ("/schedule", b"\xff\xfe"),
    ("/schedule", b'{"graph": {}}'),
    ("/schedule", b'{"graph": 1, "platform": 2}'),
    ("/schedule", b'{"graph": {}, "platform": {}, "algorithm": "nope"}'),
    ("/jobs", b'{"session": "bench", "release_time": "soon", "graph": {}}'),
    ("/jobs", b'{"session": "", "graph": {}}'),
)


class ServiceMixed:
    """A seeded request stream into ``ServiceApp(workers=1).handle``.

    A run is ``PASSES`` streams, each into a fresh app (so its misses miss
    again).  Each half of a stream has the same op counts (``HALF``),
    shuffled.  Hits, re-encoded bodies and malformed bodies form the fast
    cluster (65% of ops) and everything that schedules forms the slow one,
    so p50 sits 15 points inside the fast cluster and p99 deep in the slow
    one.  The app's cache is sized so that nothing is evicted in a stream,
    which keeps every op kind in its cluster.
    """

    name = "service_mixed"
    ALPHAS = (0.4, 0.7, 0.85, 1.0)
    HALF = {
        "malformed": 50, "raw_hit": 300, "reencoded_hit": 300,
        "miss_small": 180, "miss_linalg": 20, "miss_pair": 20,
        "infeasible": 25, "infeasible_repeat": 25, "jobs": 60,
    }
    FAST = ("malformed", "raw_hit", "reencoded_hit")
    PASSES = 3
    JOBS_SEED = 7
    SESSION = "bench"

    def __init__(self, family: int, golden: dict) -> None:
        self.family = family
        self.universe = golden["universe"]
        self.jobs_golden = golden["jobs"]

    @classmethod
    def ops_per_half(cls) -> dict:
        """Ops per kind in each half; a pair is two misses."""
        return {k: n * (2 if k == "miss_pair" else 1)
                for k, n in cls.HALF.items()}

    @classmethod
    def fractions(cls) -> list:
        """``(fraction, is_fast)`` per op kind, for the cluster check."""
        ops = cls.ops_per_half()
        total = sum(ops.values())
        return [(n / total, kind in cls.FAST) for kind, n in ops.items()]

    @classmethod
    def instances(cls) -> dict:
        """Paper instances by set name, each a list of (graph, platform)."""
        linalg = [lu_dag(4), lu_dag(5), lu_dag(6), cholesky_dag(4),
                  cholesky_dag(5), cholesky_dag(6), cholesky_dag(7)]
        return {
            "small": [(g, RAND_PLATFORM) for g in small_rand_set()],
            "large": [(g, RAND_PLATFORM) for g in large_rand_set()],
            "half": [(g, RAND_PLATFORM) for g in large_rand_set(size=75)],
            "linalg": [(g, MIRAGE_PLATFORM) for g in linalg],
        }

    @classmethod
    def requests(cls, instances) -> dict:
        """Every request of the universe: key -> (body, request, the graph
        as the service decodes it, unbounded HEFT makespan)."""
        out = {}
        for set_name, members in instances.items():
            for gi, (graph, platform) in enumerate(members):
                ref = heft(graph, platform)
                ref_memory = max(ref.meta["peaks"])
                graph_d = graph_to_dict(graph)
                decoded = graph_from_dict(graph_d)   # task ids as on the wire
                for alpha in cls.ALPHAS:
                    platform_d = platform_to_dict(
                        platform.with_uniform_bound(alpha * ref_memory))
                    for algo in ALGORITHMS:
                        req = {"graph": graph_d, "platform": platform_d,
                               "algorithm": algo}
                        out[f"{set_name}/{gi}/{alpha}/{algo}"] = (
                            json.dumps(req).encode(), req, decoded,
                            ref.makespan)
        return out

    @classmethod
    def job_bodies(cls) -> list:
        trace = poisson_trace(2 * cls.HALF["jobs"], seed=cls.JOBS_SEED,
                              rate=2.0, size=8, width=0.4, density=0.5,
                              jumps=3)
        platform_d = platform_to_dict(JOBS_PLATFORM)
        return [(json.dumps({
            "session": cls.SESSION, "platform": platform_d,
            "algorithm": "memheft", "policy": "immediate",
            "job_id": row["job"], "release_time": row["release"],
            "graph": row["graph"]}).encode(), len(row["graph"]["tasks"]))
            for row in trace]

    def warm_up(self) -> None:
        app = ServiceApp(workers=1)
        instances = {"small": [(g, RAND_PLATFORM) for g in
                               small_rand_set(n_graphs=2, seed=1)]}
        for body, req, _, _ in self.requests(instances).values():
            app.handle("POST", "/schedule", body)
            app.handle("POST", "/schedule", body)
            app.handle("POST", "/schedule", json.dumps(req, indent=1).encode())
        for path, body in MALFORMED:
            app.handle("POST", path, body)
        for body, _ in self.job_bodies()[:3]:
            app.handle("POST", "/jobs", body)
        app.close()

    def setup(self, clock) -> None:
        with clock.unit("instances"):
            instances = self.instances()
        with clock.unit("references"):
            self.reqs = self.requests(instances)
        with clock.unit("jobs"):
            self.jobs = self.job_bodies()
        self.plans = []
        for p in range(self.PASSES):
            with clock.unit("plan"):
                self.plans.append(self.make_plan(p))

    def make_plan(self, p: int) -> list:
        """The op list of pass ``p``: ``(half, kind, path, body, key)``,
        with the key of the request a hit repeats.  Statuses come from the
        recorded universe, so a hit only ever repeats an earlier 200."""
        rng = random.Random(f"service_mixed:{self.family}:{p}")
        status = {k: v[0] for k, v in self.universe.items()}
        pools = {}
        for key in sorted(self.reqs):
            set_name = key.split("/")[0]
            if status[key] == 422:
                pools.setdefault("infeasible", []).append(key)
            elif set_name in ("small", "linalg"):
                pools.setdefault(set_name, []).append(key)
            elif set_name == "large":
                pair = "half/" + key.split("/", 1)[1]
                if status[pair] == 200:
                    pools.setdefault("pair", []).append(key)
        for pool in pools.values():
            rng.shuffle(pool)
        jobs = iter(range(len(self.jobs)))
        plan, failed, encodings = [], [], {}
        done = {"small": [], "linalg": [], "large": [], "half": []}
        # Hits repeat each instance set in the share its misses have, so
        # both halves hit the same mix of graph sizes.
        share = {"small": self.HALF["miss_small"],
                 "linalg": self.HALF["miss_linalg"],
                 "large": self.HALF["miss_pair"],
                 "half": self.HALF["miss_pair"]}
        for half in (0, 1):
            kinds = [k for k, n in self.HALF.items() for _ in range(n)]
            rng.shuffle(kinds)
            targets = {}
            for kind in ("raw_hit", "reencoded_hit"):
                n = self.HALF[kind] / sum(share.values())
                targets[kind] = [s for s, c in share.items()
                                 for _ in range(round(n * c))]
                rng.shuffle(targets[kind])
            for kind in kinds:
                if kind in targets and not any(done.values()):
                    kind = "miss_small"
                if kind == "infeasible_repeat" and not failed:
                    kind = "infeasible"
                if kind == "malformed":
                    path, body = MALFORMED[rng.randrange(len(MALFORMED))]
                    plan.append((half, kind, path, body, None))
                elif kind == "jobs":
                    plan.append((half, kind, "/jobs", None, next(jobs)))
                elif kind == "infeasible_repeat":
                    key = rng.choice(failed)
                    plan.append((half, kind, "/schedule", self.reqs[key][0],
                                 key))
                elif kind in targets:
                    want = targets[kind].pop()
                    pool = done[want] or done["small"] or next(
                        v for v in done.values() if v)
                    key = rng.choice(pool)
                    body = self.reqs[key][0]
                    if kind == "reencoded_hit":
                        # Equivalent bytes never seen before: the raw index
                        # misses and the request is parsed and digested.
                        n = encodings[key] = encodings.get(key, 0) + 1
                        body = json.dumps(self.reqs[key][1], indent=1,
                                          sort_keys=True).encode() + b"\n" * n
                    plan.append((half, kind, "/schedule", body, key))
                elif kind == "miss_pair":
                    key = pools["pair"].pop()
                    pair = "half/" + key.split("/", 1)[1]
                    for k in (key, pair):
                        plan.append((half, kind, "/schedule",
                                     self.reqs[k][0], k))
                        done[k.split("/")[0]].append(k)
                else:
                    pool = {"miss_small": "small", "miss_linalg": "linalg",
                            "infeasible": "infeasible"}[kind]
                    key = pools[pool].pop()
                    plan.append((half, kind, "/schedule",
                                 self.reqs[key][0], key))
                    if kind == "infeasible":
                        failed.append(key)
                    else:
                        done[pool].append(key)
        return plan

    def run(self, rec) -> Outcome:
        out = Outcome()
        for plan in self.plans:
            app = ServiceApp(workers=1, cache_size=8192)
            self.run_pass(rec, out, app, plan)
            self.check_journal(rec, app)
            app.close()
            out.arrivals += len(self.jobs)
        return out

    def run_pass(self, rec, out, app, plan) -> None:
        first_body = {}
        for half, kind, path, body, key in plan:
            if kind == "jobs":
                body, n_tasks = self.jobs[key]
                label = f"job/{key}"
            else:
                label = f"{kind}/{key}"
            resp, exc, seconds = rec.time(label, app.handle, "POST", path,
                                          body)
            out.op_s += seconds
            out.latency.append(seconds)
            out.history.append((half, seconds))
            if kind == "miss_pair":
                out.scale[0 if key.startswith("large/") else 1] += seconds
            if exc is not None:
                rec.fail(label, f"raised {type(exc).__name__}: {exc}")
                continue
            status, _, resp_body = resp
            if kind == "malformed":
                if not 400 <= status < 500:
                    rec.fail(label, f"malformed body got {status}")
                continue
            out.valid += 1
            if kind == "jobs":
                self.check_job(rec, out, key, status, resp_body, n_tasks)
                continue
            expected_status, expected = self.universe[key]
            if status != expected_status:
                rec.fail(label, f"status {status}, expected "
                                f"{expected_status}")
                continue
            seen = first_body.get(key)
            if seen is not None:
                if resp_body != seen[0]:
                    rec.fail(label, "repeat differs from its first answer")
                    continue
                makespan = seen[1]
            else:
                if not rec.expect(label, expected, digest(resp_body)):
                    continue
                makespan = None
                if status == 200:
                    makespan = self.checked_makespan(rec, label, key,
                                                     resp_body)
                    if makespan is None:
                        continue
                first_body[key] = (resp_body, makespan)
            if status == 200:
                _, _, graph, ref_makespan = self.reqs[key]
                out.feasible += 1
                out.tasks += graph.n_tasks
                out.ratios.append(makespan / ref_makespan)

    def checked_makespan(self, rec, label, key, resp_body):
        """The makespan of a 200 body whose schedule validates, else
        ``None`` (counted as a failure)."""
        data = json.loads(resp_body)
        schedule = schedule_from_dict(data["schedule"])
        try:
            validate_schedule(self.reqs[key][2], schedule.platform, schedule)
        except ScheduleError as err:
            rec.fail(label, f"invalid schedule: {err}")
            return None
        return data["makespan"]

    def check_job(self, rec, out, k, status, resp_body, n_tasks) -> None:
        label = f"job/{k}"
        if status != 200:
            rec.fail(label, f"/jobs status {status}")
            return
        resp = json.loads(resp_body)
        resp.pop("decision_ms", None)     # wall-clock, not output
        if rec.expect(label, self.jobs_golden.get(label), digest(resp)):
            out.feasible += 1
            out.tasks += n_tasks * len(resp["planned"])

    def check_journal(self, rec, app) -> None:
        status, _, body = app.handle("GET", f"/jobs?session={self.SESSION}",
                                     b"")
        rows = json.loads(body)["journal"].splitlines()[1:] if status == 200 \
            else []
        for k, row in enumerate(rows):
            rec.expect(f"journal/{k}", self.jobs_golden.get(f"journal/{k}"),
                      digest(row.encode()))
        if len(rows) != len(self.jobs):
            rec.expect("journal/rows", len(self.jobs), len(rows))


# ----------------------------------------------------------------------
# online_replan
# ----------------------------------------------------------------------
class OnlineReplan:
    """Seeded Poisson streams through ``OnlineSession(..., "memheft",
    "replan:16")``; each release group is submitted, then its ``poll`` is
    timed.

    Stream k's release times and job graphs are fixed, and the family
    relabels the job graphs (see ``relabel``), so every run has the same
    rounds, group sizes and sessions up to tie orders: per-round cost
    follows group sizes and session length, and a random arrival pattern
    per seed moved history_ratio by +-20%.
    """

    name = "online_replan"
    PLATFORM = JOBS_PLATFORM
    POLICY = "replan:16"
    STREAMS = 3
    ARRIVALS = 200

    def __init__(self, family: int, golden: dict) -> None:
        self.family = family
        self.digests = golden["families"][str(family)]

    @classmethod
    def trace(cls, family: int, k: int) -> list:
        shape = dict(rate=2.0, tick=2.5, size=12, width=0.4, density=0.5,
                     jumps=3)
        # Release times depend on the seed and rate only; tiny graphs
        # keep this draw cheap.
        releases = poisson_trace(cls.ARRIVALS, seed=k, rate=shape["rate"],
                                 tick=shape["tick"], size=2)
        jobs = poisson_trace(cls.ARRIVALS, seed=1000 + k, **shape)
        rng = random.Random(f"online_replan:{family}:{k}")
        return [dict(job, release=arrival["release"],
                     graph=relabel(job["graph"], rng))
                for arrival, job in zip(releases, jobs)]

    @staticmethod
    def groups(trace) -> list:
        """``[(release, [(job_id, graph), ...]), ...]`` in release order."""
        out = {}
        for row in trace:
            out.setdefault(row["release"], []).append(
                (row["job"], graph_from_dict(row["graph"])))
        return sorted(out.items())

    def warm_up(self) -> None:
        session = OnlineSession(self.PLATFORM, "memheft", self.POLICY)
        trace = poisson_trace(6, seed=99, rate=2.0, tick=2.5, size=12)
        for release, jobs in self.groups(trace):
            for job_id, graph in jobs:
                session.submit(graph, release=release, job_id=job_id)
            session.poll(release)

    def setup(self, clock) -> None:
        self.streams = []
        for k in range(self.STREAMS):
            with clock.unit("stream"):
                groups = self.groups(self.trace(self.family, k))
                jobs = [OnlineJob(job_id, graph, release, release, i)
                        for i, (release, job_id, graph) in enumerate(
                            (r, j, g) for r, group in groups
                            for j, g in group)]
                clairvoyant = clairvoyant_makespan(jobs, self.PLATFORM)
            self.streams.append((f"s{k}", groups, clairvoyant))

    def run(self, rec) -> Outcome:
        out = Outcome()
        for stream, groups, clairvoyant in self.streams:
            session = OnlineSession(self.PLATFORM, "memheft", self.POLICY)
            tasks = {}
            for i, (release, jobs) in enumerate(groups):
                for job_id, graph in jobs:
                    session.submit(graph, release=release, job_id=job_id)
                    tasks[job_id] = graph.n_tasks
                label = f"{stream}/poll{i}"
                planned, exc, seconds = rec.time(label, session.poll,
                                                 release)
                out.op_s += seconds
                out.valid += 1
                out.latency.append(seconds)
                out.history.append((int(2 * i >= len(groups)), seconds))
                # scaling_ratio: the whole stream against the same session
                # at half its length (rounds up to the middle arrival).
                out.scale[0] += seconds
                if 2 * len(tasks) <= self.ARRIVALS:
                    out.scale[1] += seconds
                if isinstance(exc, InfeasibleScheduleError):
                    rec.expect(label, self.digests.get(label), "infeasible")
                elif exc is not None:
                    rec.fail(label, f"raised {type(exc).__name__}: {exc}")
                elif rec.expect(label, self.digests.get(label),
                                digest(planned)):
                    out.feasible += 1
                    out.tasks += sum(tasks[j] for j in planned)
            out.arrivals += self.ARRIVALS
            if session.flush() or session.n_pending:
                rec.fail(f"{stream}/flush", "jobs left after the stream")
            rows = session.journal().splitlines()[1:]
            for row in rows:
                job = json.loads(row)["job"]
                rec.expect(f"{stream}/{job}",
                          self.digests.get(f"{stream}/{job}"),
                          digest(row.encode()))
            if len(rows) != self.ARRIVALS:
                rec.expect(f"{stream}/rows", self.ARRIVALS, len(rows))
            out.ratios.append(session.makespan / clairvoyant)
        return out


WORKLOADS = {w.name: w for w in (OfflineLarge, ServiceMixed, OnlineReplan)}
