"""Event-driven simulator over one :class:`OnlineSession` timeline.

A heap of ``(time, seq, kind)`` events — job *releases* from the arrival
trace, job *completions* computed as placements commit — drives the
session: all releases sharing one timestamp are ingested before the
session is polled, so simultaneous arrivals land in one planning round
(with all-zero release times that single round is bit-identical to the
offline heuristic on the union DAG).

The result bundles the deterministic decision journal (byte-comparable
across runs and processes), the chronological event log, per-round
decision latencies, and the makespan-regret helper against the
clairvoyant offline schedule of the union DAG.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from ..core.platform import Platform
from ..io.json_io import graph_from_dict
from .session import OnlineSession, clairvoyant_makespan


def _percentile(samples, q: float) -> float:
    """Nearest-rank percentile (same convention as the benchmarks)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    k = max(0, min(len(ordered) - 1,
                   round(q / 100.0 * (len(ordered) - 1))))
    return ordered[k]


class OnlineResult:
    """Outcome of one simulated arrival stream."""

    def __init__(self, session: OnlineSession, events: list) -> None:
        self.session = session
        #: Chronological ``{"t", "kind": "release"|"complete", "job"}``.
        self.events = events

    @property
    def makespan(self) -> float:
        return self.session.makespan

    @property
    def decision_ms(self) -> list:
        """Per-round planning latencies, chronological."""
        return [r["ms"] for r in self.session.rounds]

    def latency_stats(self) -> dict:
        samples = self.decision_ms
        return {
            "n_rounds": len(samples),
            "p50_ms": round(_percentile(samples, 50.0), 4),
            "p99_ms": round(_percentile(samples, 99.0), 4),
            "max_ms": round(max(samples), 4) if samples else 0.0,
        }

    def journal(self) -> str:
        return self.session.journal()

    def clairvoyant_makespan(self) -> float:
        """Makespan of the clairvoyant baseline (see
        :func:`repro.online.session.clairvoyant_makespan`) — the offline
        heuristic interleaving the whole stream in one global pass,
        release times relaxed to zero (a lower bound)."""
        session = self.session
        jobs = sorted(session.jobs.values(), key=lambda j: j.arrival_index)
        return clairvoyant_makespan(jobs, session.platform,
                                    algorithm=session.algorithm,
                                    comm_policy=session.comm_policy)

    def regret(self, clairvoyant: Optional[float] = None) -> float:
        """``online_makespan / clairvoyant_makespan - 1`` (0.10 = 10%
        worse than the clairvoyant; both sides are heuristics, so small
        negative values are possible)."""
        if clairvoyant is None:
            clairvoyant = self.clairvoyant_makespan()
        if clairvoyant <= 0.0:
            return 0.0
        return self.makespan / clairvoyant - 1.0


def _trace_jobs(trace) -> list:
    """Normalise trace rows to ``(job_id, graph, release)``; accepts the
    loadgen row dicts (graphs as wire dicts or TaskGraph objects)."""
    jobs = []
    for k, row in enumerate(trace):
        graph = row["graph"]
        if isinstance(graph, dict):
            graph = graph_from_dict(graph)
        jobs.append((row.get("job", f"job-{k:04d}"), graph,
                     float(row.get("release", 0.0))))
    return jobs


def simulate(trace, platform: Platform, *, algorithm: str = "memheft",
             policy="immediate", comm_policy: str = "late") -> OnlineResult:
    """Run one arrival trace through an event-driven session timeline.

    ``trace`` is a sequence of ``{"job", "release", "graph"}`` rows (see
    :mod:`repro.online.loadgen`).  Releases are processed in time order
    (ties by trace position); after the stream drains, the session is
    flushed so batched/replan policies place their residue.
    """
    session = OnlineSession(platform, algorithm=algorithm, policy=policy,
                            comm_policy=comm_policy)
    seq = itertools.count()
    queue: list = []
    for job_id, graph, release in _trace_jobs(trace):
        heapq.heappush(queue, (release, next(seq), "release",
                               job_id, graph))
    events: list = []
    completions: set = set()

    def note_completions() -> None:
        # Completion events join the shared timeline as placements
        # commit; they are observational (resource reuse is already
        # encoded in the avail vector and memory profiles).
        for job in session.jobs.values():
            if job.placements is not None and job.job_id not in completions:
                completions.add(job.job_id)
                heapq.heappush(queue, (job.finish, next(seq), "complete",
                                       job.job_id, None))

    while queue:
        t = queue[0][0]
        releases = False
        while queue and queue[0][0] <= t:
            _, _, kind, job_id, graph = heapq.heappop(queue)
            if kind == "release":
                session.submit(graph, release=t, job_id=job_id)
                events.append({"t": t, "kind": "release", "job": job_id})
                releases = True
            else:
                events.append({"t": t, "kind": "complete", "job": job_id})
        if releases:
            session.poll(t)
            note_completions()
    session.flush()
    note_completions()
    while queue:
        t, _, kind, job_id, _ = heapq.heappop(queue)
        events.append({"t": t, "kind": kind, "job": job_id})
    return OnlineResult(session, events)
