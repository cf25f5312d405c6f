"""Stateful online scheduling session: jobs stream in with release
times, placements are committed incrementally on a live timeline.

The session drives the *same* lazy list-scheduling loops as the offline
heuristics (:mod:`repro.scheduling.memheft` et al.) over a live
:class:`~repro.scheduling.state.SchedulerState`, one **planning round**
per due time (see :mod:`repro.online.policies`):

* **carry-forward rounds** (immediate / batched) build a fresh state
  over the union DAG of just the *pending* jobs, seed it with the
  session's processor-avail vector and hand it the session's live
  :class:`~repro.core.memory_profile.MemoryProfile` objects by
  reference — prior commitments are fully encoded in those two
  structures because jobs are independent DAGs, so a round costs
  O(pending work), not O(session history);
* **re-planning rounds** (``replan:W``) revoke up to ``W`` of the most
  recent decisions whose start lies beyond the round's floor, replay
  the kept decision log through :meth:`SchedulerState.commit`
  (``breakdown.proc`` is honoured verbatim, so replay does zero EST
  evaluations), and then drive the heuristic over the revoked + new
  tasks — a warm start from the committed prefix.

Every committed decision is clamped to the round's **floor** (its due
time): ``est' = max(est, floor)``.  This is feasibility-safe because the
memory fit points have suffix semantics — ``earliest_fit`` guarantees
room from ``t`` on for *all* ``t' >= t`` — and transfer windows only
shift right with the start.  With all release times zero the floor is 0,
the clamp is the identity, and the single planning round is
bit-identical to the offline heuristic on the union DAG (pinned by
``tests/online/test_identity.py``).

Task identities are namespaced ``"<job_id>/<task>"`` in the union DAG
and the decision journal; per-job views translate back.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Hashable, NamedTuple, Optional

from .. import obs
from ..core.graph import TaskGraph
from ..core.memory_profile import MemoryProfile
from ..core.platform import Platform
from ..core.schedule import Placement
from ..io.json_io import canonical_json, platform_to_dict
from ..scheduling.candidates import (
    MinEFTSelector,
    RankSelector,
    SufferageSelector,
)
from ..scheduling.kernel import ESTBreakdown
from ..scheduling.ranks import rank_order
from ..scheduling.registry import ENGINE_OPTIONED, get_scheduler
from ..scheduling.state import InfeasibleScheduleError, SchedulerState
from .policies import make_policy

Task = Hashable

#: Due times within this tolerance land in the same planning round.
_TIME_EPS = 1e-9

#: Journal schema revision (first line of :meth:`OnlineSession.journal`).
JOURNAL_VERSION = 1


class OnlineJob:
    """One submitted task graph and its lifecycle inside a session."""

    __slots__ = ("job_id", "graph", "release", "due", "arrival_index",
                 "placements", "decision_ms")

    def __init__(self, job_id: str, graph: TaskGraph, release: float,
                 due: float, arrival_index: int) -> None:
        self.job_id = job_id
        self.graph = graph
        self.release = release
        self.due = due
        self.arrival_index = arrival_index
        #: ``{original_task: Placement}`` once planned, ``None`` before.
        self.placements: Optional[dict] = None
        #: Wall-clock cost of the planning round that placed this job.
        self.decision_ms: Optional[float] = None

    @property
    def state(self) -> str:
        return "queued" if self.placements is None else "scheduled"

    @property
    def start(self) -> Optional[float]:
        if not self.placements:
            return None
        return min(p.start for p in self.placements.values())

    @property
    def finish(self) -> Optional[float]:
        if not self.placements:
            return None
        return max(p.finish for p in self.placements.values())

    def to_dict(self) -> dict:
        out = {
            "job_id": self.job_id,
            "state": self.state,
            "release": self.release,
            "arrival_index": self.arrival_index,
            "n_tasks": self.graph.n_tasks,
        }
        if self.placements is not None:
            out.update(
                start=self.start,
                finish=self.finish,
                decision_ms=self.decision_ms,
                tasks=[
                    {"task": str(t), "proc": p.proc,
                     "memory": p.memory.index,
                     "start": p.start, "finish": p.finish}
                    for t, p in self.placements.items()
                ],
            )
        return out


class _Decision(NamedTuple):
    """One committed placement, recorded with exactly the breakdown
    fields :meth:`SchedulerState.commit` consumes — replaying a decision
    is one ``commit`` call with ``proc`` honoured verbatim and zero EST
    evaluations."""

    task: Task         # namespaced "<job_id>/<task>"
    memidx: int
    est: float         # post-clamp start
    duration: float
    cmax: float
    comm_fit: float
    proc: int


def _split_ns(task: Task) -> tuple[str, str]:
    """``"<job_id>/<task>" -> (job_id, task)`` (job ids contain no '/')."""
    job_id, _, name = str(task).partition("/")
    return job_id, name


def build_union_graph(jobs, n_classes: int,
                      name: str = "online-union") -> TaskGraph:
    """The union DAG of independent jobs, task ids namespaced
    ``"<job_id>/<task>"``, insertion order = arrival order then each
    job's own task order (deterministic, name-independent)."""
    union = TaskGraph(name=name, n_classes=n_classes)
    for job in jobs:
        prefix = job.job_id + "/"
        jg = job.graph
        for t in jg.tasks():
            union.add_task(prefix + str(t), times=jg.times(t))
        for u, v in jg.edges():
            union.add_dependency(prefix + str(u), prefix + str(v),
                                 size=jg.size(u, v), comm=jg.comm(u, v))
    return union


def clairvoyant_makespan(jobs, platform: Platform, *,
                         algorithm: str = "memheft",
                         comm_policy: str = "late") -> float:
    """The regret baseline: the offline heuristic's makespan on the
    union DAG of the whole stream, release times relaxed to zero.

    This is a clairvoyant *lower bound* — a scheduler that saw every
    job up front and were free of arrival constraints could interleave
    all tasks in one global pass — so measured regret upper-bounds the
    true loss to the best feasible schedule.  With all releases zero
    the relaxation is vacuous and the bound coincides with the offline
    heuristic the identity property pins online against.
    """
    jobs = sorted(jobs, key=lambda j: j.arrival_index)
    union = build_union_graph(jobs, platform.n_classes,
                              name="clairvoyant-union")
    return get_scheduler(algorithm)(
        union, platform, comm_policy=comm_policy).makespan


class OnlineSession:
    """One shared timeline accepting task graphs with release times.

    ``submit`` only enqueues; ``poll(now)`` runs the planning rounds
    whose due times have passed (grouping same-due arrivals into one
    round — how all-zero release times collapse into the offline-
    identical single round); ``flush`` drains everything pending.
    Callers that want submit-and-plan semantics (the service does) call
    ``submit`` + ``poll(release)`` back to back.

    Not thread-safe: the service wraps each session in its own lock.
    """

    def __init__(self, platform: Platform, algorithm: str = "memheft",
                 policy="immediate", comm_policy: str = "late") -> None:
        if algorithm not in ENGINE_OPTIONED:
            raise ValueError(
                f"online sessions support the engine heuristics "
                f"{sorted(ENGINE_OPTIONED)}, got {algorithm!r}")
        self.platform = platform
        self.algorithm = algorithm
        self.policy = make_policy(policy)
        self.comm_policy = comm_policy
        self.clock = 0.0
        self.jobs: dict[str, OnlineJob] = {}
        self._pending: list[OnlineJob] = []
        self._avail: list[float] = [0.0] * platform.n_procs
        self._profiles: dict = {
            m: MemoryProfile(platform.capacity(m))
            for m in platform.memories()
        }
        self._log: list[_Decision] = []
        self._arrivals = itertools.count()
        #: One row per planning round: n_jobs/n_tasks/floor/replanned/ms.
        self.rounds: list[dict] = []

    # ------------------------------------------------------------------
    # submission / planning
    # ------------------------------------------------------------------
    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def submit(self, graph: TaskGraph, release: float = 0.0,
               job_id: Optional[str] = None) -> str:
        """Enqueue one job; returns its id.  Plan with :meth:`poll`."""
        if graph.n_classes != self.platform.n_classes:
            raise ValueError(
                f"job graph has {graph.n_classes} memory classes but the "
                f"session platform has {self.platform.n_classes}")
        if not (math.isfinite(release) and release >= 0.0):
            raise ValueError(f"release time must be finite and >= 0, "
                             f"got {release!r}")
        index = next(self._arrivals)
        if job_id is None:
            job_id = f"job-{index:04d}"
        if job_id in self.jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        if "/" in job_id:
            raise ValueError(f"job id {job_id!r} must not contain '/'")
        job = OnlineJob(job_id, graph, float(release),
                        self.policy.due(float(release)), index)
        self.jobs[job_id] = job
        self._pending.append(job)
        with obs.span("arrival", i=index, job=job_id,
                      n_tasks=graph.n_tasks):
            pass
        st = obs.active()
        if st is not None:
            st.registry.counter("memsched_online_jobs_total",
                                policy=self.policy.name).inc()
        return job_id

    def poll(self, now: Optional[float] = None) -> list[str]:
        """Run every planning round due at or before ``now`` (``None`` =
        all of them), earliest due first; returns the planned job ids."""
        planned: list[str] = []
        while self._pending:
            due = min(j.due for j in self._pending)
            if now is not None and due > now + _TIME_EPS:
                break
            group = [j for j in self._pending
                     if j.due <= due + _TIME_EPS]
            self._pending = [j for j in self._pending if j not in group]
            self.clock = max(self.clock, due)
            self._run_round(group, floor=self.clock)
            planned.extend(j.job_id for j in group)
        return planned

    def flush(self) -> list[str]:
        """Plan everything still pending (end of the arrival stream)."""
        return self.poll(None)

    # ------------------------------------------------------------------
    # planning rounds
    # ------------------------------------------------------------------
    def _run_round(self, group: list, floor: float) -> None:
        t0 = time.perf_counter()
        window = self.policy.replan_window
        with obs.span("plan", policy=self.policy.name, floor=floor,
                      n_jobs=len(group)):
            if window and self._log:
                replanned = self._replan_round(group, floor, window)
            else:
                replanned = 0
                self._carry_forward_round(group, floor)
        ms = (time.perf_counter() - t0) * 1000.0
        for job in group:
            job.decision_ms = ms
            with obs.span("decision", i=job.arrival_index,
                          job=job.job_id, floor=floor):
                pass
        self.rounds.append({
            "floor": floor,
            "n_jobs": len(group),
            "n_tasks": sum(j.graph.n_tasks for j in group),
            "replanned": replanned,
            "ms": ms,
        })
        st = obs.active()
        if st is not None:
            st.registry.histogram("memsched_online_decision_seconds",
                                  policy=self.policy.name
                                  ).observe(ms / 1000.0)

    def _carry_forward_round(self, group: list, floor: float) -> None:
        """Fresh state over the pending union DAG, seeded with the live
        avail vector and the session's memory profiles (by reference)."""
        union = build_union_graph(group, self.platform.n_classes)
        state = SchedulerState(union, self.platform,
                               comm_policy=self.comm_policy)
        state.mem = self._profiles
        for p, a in enumerate(self._avail):
            state.avail[p] = a
        records = self._drive(state, union, floor)
        self._log.extend(records)
        self._avail = list(state.avail)
        self._adopt_placements(state, group)

    def _replan_round(self, group: list, floor: float, window: int) -> int:
        """Revoke the revocable tail, rebuild by replaying the kept log,
        then plan revoked + new tasks together at ``floor``.

        A decision is revocable when it sits in the last ``window`` log
        entries *and* its start lies beyond ``floor``.  The kept set is
        ancestor-closed (a child never starts before its parent
        finishes) and the revoked set is descendant-closed (descendants
        commit later in the log and start later), so replaying the kept
        entries in log order is a valid partial schedule.
        """
        head = self._log[:-window] if window < len(self._log) else []
        tail = self._log[len(head):]
        revoked = [d for d in tail if d.est > floor + _TIME_EPS]
        kept = head + [d for d in tail if d.est <= floor + _TIME_EPS]

        # Jobs still pending for a *later* due time stay out of the
        # union — the driver schedules every uncommitted task it sees.
        in_round = [j for j in self.jobs.values()
                    if j.placements is not None or j in group]
        union = build_union_graph(in_round, self.platform.n_classes)
        state = SchedulerState(union, self.platform,
                               comm_policy=self.comm_policy)
        memories = self.platform.memories()
        for decision in kept:
            state.commit(ESTBreakdown(
                task=decision.task, memory=memories[decision.memidx],
                resource=0.0, precedence=0.0, task_mem=0.0, comm_mem=0.0,
                cmax=decision.cmax, est=decision.est,
                eft=decision.est + decision.duration,
                comm_fit=decision.comm_fit, duration=decision.duration,
                proc=decision.proc))
            state.pop_newly_ready()   # readiness comes from the log order
        records = self._drive(state, union, floor)
        self._log = kept + records
        self._avail = list(state.avail)
        self._profiles = state.mem
        self._adopt_placements(state, in_round)
        return len(revoked)

    def _drive(self, state: SchedulerState, graph: TaskGraph,
               floor: float) -> list[_Decision]:
        """The offline lazy driver loop, verbatim per algorithm, plus the
        release-floor clamp — with ``floor == 0`` and nothing committed
        this is bit-for-bit the offline heuristic."""
        if self.algorithm == "memheft":
            position = {t: k for k, t in enumerate(
                rank_order(graph, rng=None, platform=self.platform))}
            selector = RankSelector(state, position)
        elif self.algorithm == "memminmin":
            index = {t: k for k, t in enumerate(graph.topological_order())}
            selector = MinEFTSelector(state, index)
        else:   # memsufferage (constructor rejects anything else)
            index = {t: k for k, t in enumerate(graph.topological_order())}
            selector = SufferageSelector(state, index)
        if state.n_scheduled == 0:
            ready = graph.roots()
        else:
            ready = [t for t in graph.topological_order()
                     if state.is_ready(t)]
        for task in ready:
            selector.push(task)
        n_left = graph.n_tasks - state.n_scheduled
        records: list[_Decision] = []
        while n_left:
            best = selector.select()
            if best is None:
                raise InfeasibleScheduleError(
                    f"online {self.algorithm}: no pending task fits within "
                    f"the memory bounds ({n_left} tasks left, "
                    f"capacities={list(self.platform.capacities)})")
            if floor > best.est:
                best = best._replace(est=floor, eft=floor + best.duration)
            placement = state.commit(best)
            records.append(_Decision(
                best.task, best.memory.index, placement.start,
                placement.finish - placement.start, best.cmax,
                best.comm_fit, placement.proc))
            selector.remove(best.task)
            n_left -= 1
            for task in state.pop_newly_ready():
                selector.push(task)
        return records

    def _adopt_placements(self, state: SchedulerState, jobs) -> None:
        """Copy the round state's placements back into per-job views
        (original task names, insertion order)."""
        by_job: dict[str, dict] = {}
        for placement in state.schedule.placements():
            job_id, name = _split_ns(placement.task)
            by_job.setdefault(job_id, {})[name] = placement
        for job in jobs:
            placed = by_job.get(job.job_id)
            if placed is None:
                continue
            job.placements = {
                t: Placement(task=str(t), proc=placed[str(t)].proc,
                             memory=placed[str(t)].memory,
                             start=placed[str(t)].start,
                             finish=placed[str(t)].finish)
                for t in job.graph.tasks()
            }

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Latest finish over every committed placement (0.0 when
        nothing is planned yet)."""
        finishes = [j.finish for j in self.jobs.values()
                    if j.placements is not None]
        return max(finishes) if finishes else 0.0

    def journal(self) -> str:
        """Canonical JSONL decision journal: a header row, then one row
        per *planned* job in arrival order.  Deterministic — identical
        seed + trace produce byte-identical journals (wall-clock
        latencies deliberately excluded)."""
        header = {
            "v": JOURNAL_VERSION,
            "kind": "online-journal",
            "algorithm": self.algorithm,
            "policy": self.policy.name,
            "comm_policy": self.comm_policy,
            "platform": platform_to_dict(self.platform),
        }
        rows = [canonical_json(header)]
        for job in sorted(self.jobs.values(),
                          key=lambda j: j.arrival_index):
            if job.placements is None:
                continue
            rows.append(canonical_json({
                "job": job.job_id,
                "release": job.release,
                "tasks": [
                    {"task": str(t), "proc": p.proc,
                     "memory": p.memory.index,
                     "start": p.start, "finish": p.finish}
                    for t, p in job.placements.items()
                ],
            }))
        return "\n".join(rows) + "\n"

    def summary(self) -> dict:
        planned = [j for j in self.jobs.values() if j.placements is not None]
        return {
            "algorithm": self.algorithm,
            "policy": self.policy.name,
            "comm_policy": self.comm_policy,
            "clock": self.clock,
            "n_jobs": len(self.jobs),
            "n_planned": len(planned),
            "n_pending": len(self._pending),
            "n_rounds": len(self.rounds),
            "makespan": self.makespan,
        }
