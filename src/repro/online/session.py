"""Stateful online scheduling session: jobs stream in with release
times, placements are committed incrementally on a live timeline.

Every planning round runs the one list-scheduling loop of the offline
heuristics (:func:`repro.scheduling.driver.drive`) with the selector
the offline heuristic builds
(:func:`repro.scheduling.driver.make_selector`) over a live
:class:`~repro.scheduling.state.SchedulerState`, one **planning round**
per due time (see :mod:`repro.online.policies`).

**Checkpoint plus tail.**  The decision log splits into a prefix no
later round can revoke and a tail of at most ``W`` decisions (``W`` is
the policy's replan window, ``0`` for ``immediate`` and ``batched:Q``).
The session keeps the prefix only *folded*: a checkpoint holding the
per-class :class:`~repro.core.memory_profile.MemoryProfile` staircases
and the processor-avail vector after its last decision.  Jobs are
independent DAGs and ``earliest_fit`` has suffix semantics, so those two
structures fully summarise every commitment of the prefix.

**One round path.**  Every round, whatever the policy:

1. revokes the tail decisions whose start lies beyond the round's floor
   (with ``W = 0`` the tail is empty and nothing is revoked);
2. builds the round's union over its **live** tasks only — the tasks of
   the group being planned and every tail task, kept or revoked — plus
   **ghosts**, their parents placed before the tail, as one
   :class:`~repro.core.graph.FlatGraph` (:func:`_round_union`) taken
   from per-job blocks (:class:`_JobBlock`: ids, times, edges,
   topological generations and upward ranks, built at a job's first
   round from the job graph's own dicts and cached while the job has a
   tail decision); the round's union is never built as a
   :class:`~repro.core.graph.TaskGraph`;
3. seeds a fresh state with the checkpoint's own profiles, mutated in
   place under an undo log (:meth:`MemoryProfile.record`; copying them
   would cost O(history) per round), and a copy of its avail vector;
4. *adopts* the ghosts (:meth:`SchedulerState.adopt`: finish time,
   memory class and child readiness, no memory or avail effect — those
   are in the checkpoint); a placed task that is no live task's parent
   plays no part in the round and is left out;
5. replays the kept tail by committing each decision's recorded
   breakdown again through :meth:`SchedulerState.commit` (the tail holds
   the committed :class:`~repro.scheduling.kernel.ESTBreakdown` with the
   placed ``proc`` filled in, which ``commit`` honours verbatim, so
   replay does zero EST evaluations), then drives the heuristic over
   revoked + new tasks;
6. folds the decisions that left the revocable window into the new
   checkpoint.  Its position is known before driving: the round marks
   the undo logs at that commit and, once it has succeeded, rolls the
   profiles back to the marks — taking back exactly the effects of the
   decisions still in the window (none with ``W = 0``).

A round therefore costs O(window + group) graph work, not O(session
history) nor O(tasks of the open jobs), and a job's edges, generations
and ranks are derived once, not once per round.  The union is exact:
a child commits after its parents, so the tail is descendant-closed and
every child of a live task is live — a live row's times, output size
and parent and child edges are those of ``build_union_graph(jobs)
.flatten()``, and the live rows keep its relative order (generation,
arrival, the job's topological row), so row-order tie-breaks and
MemHEFT's rank order (``rank_order(union, rng=None)`` restricted to the
live tasks) are unchanged (pinned by ``tests/online/test_flat_union.py``).
Ghosts come first, without parents, listing only their live children,
so the parentless rows still form a prefix.  A round is also
**atomic**: a failing round rolls the profiles back to where it found
them, and the session adopts the new checkpoint, tail and placements
only once the round has succeeded — a round raising
:class:`~repro.scheduling.state.InfeasibleScheduleError` leaves the
session exactly as it was.  The schedules are bit-identical to
rebuilding every round from scratch over the whole kept log (pinned by
``tests/online/test_replan_checkpoint.py``): upward ranks are job-local,
``rank_order(rng=None)`` and ``topological_order()`` keep relative order
when whole jobs are dropped, and the checkpoint's profiles are the same
sums of the same ``add`` calls in the same log order.

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
from ..core.graph import FlatGraph, TaskGraph
from ..core.memory_profile import MemoryProfile
from ..core.platform import Platform
from ..core.schedule import Placement
from ..io.json_io import canonical_json, platform_to_dict
from ..scheduling.driver import drive, make_selector
from ..scheduling.kernel import ESTBreakdown
from ..scheduling.ranks import upward_rank_rows
from ..scheduling.ranks import rank_order  # noqa: F401 (perfbench patches it here)
from ..scheduling.registry import ENGINE_OPTIONED, get_scheduler
from ..scheduling.state import COMM_POLICIES, SchedulerState
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


class _Checkpoint(NamedTuple):
    """The never-revocable log prefix, folded: the per-class used-memory
    profiles and the processor-avail vector after its ``length``
    decisions."""

    profiles: dict
    avail: list
    length: int


def _split_ns(task: Task) -> tuple[str, str]:
    """``"<job_id>/<task>" -> (job_id, task)`` (job ids contain no '/')."""
    job_id, _, name = str(task).partition("/")
    return job_id, name


def _fold(state: SchedulerState) -> tuple[dict, list]:
    """The new checkpoint's position in a round: the undo-log mark of each
    profile and a copy of the avail vector."""
    return ({m: p.mark() for m, p in state.mem.items()}, list(state.avail))


def build_union_graph(jobs, n_classes: int,
                      name: str = "online-union") -> TaskGraph:
    """The union DAG of independent jobs, task ids namespaced
    ``"<job_id>/<task>"``, insertion order = arrival order then each
    job's own task order (deterministic, name-independent)."""
    union = TaskGraph(name=name, n_classes=n_classes)
    for job in jobs:
        prefix = job.job_id + "/"
        jg = job.graph
        ids = {t: prefix + str(t) for t in jg.tasks()}
        union.add_tasks(zip(ids.values(), map(jg.times, ids)))
        union.add_dependencies((ids[u], ids[v], size, comm)
                               for u, v, size, comm in jg.edge_items())
    return union


class _JobBlock:
    """One job's rows, built at the job's first round and cached while
    the job is open: a job's edges, topological generations and upward
    ranks never change once it has been submitted.

    ``flat`` is ``build_union_graph((job,)).flatten()`` field for field,
    assembled straight from the job graph's ``_times``/``_succ`` dicts
    (``submit`` validated them): namespaced ids in the topological order
    ``validate()`` cached, parent edges in the union's ``graph.edges()``
    order (u-major), which is not the job graph's own predecessor order
    when its edges were inserted in another order.  Per row, ``gens``
    holds the topological generation, ``keys`` the original task key,
    ``node_pos`` the task's position in node order and ``neg_ranks`` its
    negated upward rank on the session platform.
    """

    __slots__ = ("flat", "gens", "keys", "node_pos", "neg_ranks")

    def __init__(self, job: OnlineJob, platform: Platform) -> None:
        graph = job.graph
        order = graph.topological_order()
        row = dict(zip(order, range(len(order))))
        succ = graph._succ
        parents: list = [[] for _ in order]
        for u, children in succ.items():
            for v, edge in children.items():
                parents[row[v]].append((row[u], edge))
        parent_ptr = [0]
        parent_row: list = []
        parent_comm: list = []
        parent_size: list = []
        child_ptr = [0]
        child_row: list = []
        out_size: list = []
        gens: list = []
        for t, edges in zip(order, parents):
            gen = 0
            for p, (size, comm) in edges:
                parent_row.append(p)
                parent_comm.append(comm)
                parent_size.append(size)
                if gens[p] >= gen:
                    gen = gens[p] + 1
            gens.append(gen)
            parent_ptr.append(len(parent_row))
            total = 0.0
            for c, (size, _) in succ[t].items():
                child_row.append(row[c])
                total += size
            child_ptr.append(len(child_row))
            out_size.append(total)
        prefix = job.job_id + "/"
        self.flat = FlatGraph(
            tuple([prefix + str(t) for t in order]), parent_ptr, parent_row,
            parent_comm, parent_size, child_ptr, child_row, out_size,
            list(map(graph._times.__getitem__, order)), graph.n_classes)
        self.gens = gens
        self.keys = order
        node_pos = dict(zip(graph._times, range(len(order))))
        self.node_pos = list(map(node_pos.__getitem__, order))
        self.neg_ranks = [-r for r in upward_rank_rows(self.flat, platform)]


def _round_union(blocks, live, n_classes: int) -> tuple[FlatGraph, list]:
    """A planning round's union over its **live** rows plus **ghost** rows.

    ``blocks`` are the round's job blocks in arrival order and ``live``
    holds, per block, the job-local rows the round places (every row of
    a group job; the tail rows of an open job).  Ghosts are the other
    parents of live rows — placed before the tail, adopted by the round
    — and come first, without parents of their own and listing only
    their live children.  Rows of each kind keep the full union's
    relative order (generation, then arrival, then the job's topological
    row), so ties broken on row order and the parentless prefix are
    those of ``build_union_graph(jobs).flatten()``, and a live row's
    times, output size and edges are the full union's: its children are
    all live (the tail is descendant-closed).  Returns the flat and the
    ghosts as ``(block position, job-local row)`` pairs in row order."""
    ghosts: list = []
    rows: list = []
    for j, (block, own) in enumerate(zip(blocks, live)):
        gens = block.gens
        rows += [(gens[r], j, r) for r in own]
        if len(own) < block.flat.n_tasks:
            ptr, parent_row = block.flat.parent_ptr, block.flat.parent_row
            placed = {p for r in own for p in parent_row[ptr[r]:ptr[r + 1]]}
            placed.difference_update(own)
            ghosts += [(gens[r], j, r) for r in placed]
    ghosts.sort()
    rows.sort()
    n_ghosts = len(ghosts)
    union_row: list = [{} for _ in blocks]
    for k, (_, j, r) in enumerate(ghosts + rows):
        union_row[j][r] = k
    order: list = []
    times: list = []
    out_size: list = []
    parent_ptr = [0] * (n_ghosts + 1)
    parent_row: list = []
    parent_comm: list = []
    parent_size: list = []
    child_ptr = [0]
    child_row: list = []
    for _, j, r in ghosts:
        flat, at = blocks[j].flat, union_row[j]
        order.append(flat.order[r])
        times.append(flat.times[r])
        out_size.append(flat.out_size[r])
        child_row += [at[c] for c in
                      flat.child_row[flat.child_ptr[r]:flat.child_ptr[r + 1]]
                      if at.get(c, -1) >= n_ghosts]
        child_ptr.append(len(child_row))
    for _, j, r in rows:
        flat, at = blocks[j].flat, union_row[j]
        order.append(flat.order[r])
        times.append(flat.times[r])
        out_size.append(flat.out_size[r])
        lo, hi = flat.parent_ptr[r], flat.parent_ptr[r + 1]
        parent_row += map(at.__getitem__, flat.parent_row[lo:hi])
        parent_comm += flat.parent_comm[lo:hi]
        parent_size += flat.parent_size[lo:hi]
        parent_ptr.append(len(parent_row))
        child_row += map(at.__getitem__,
                         flat.child_row[flat.child_ptr[r]:flat.child_ptr[r + 1]])
        child_ptr.append(len(child_row))
    return (FlatGraph(tuple(order), parent_ptr, parent_row, parent_comm,
                      parent_size, child_ptr, child_row, out_size, times,
                      n_classes),
            [(j, r) for _, j, r in ghosts])


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
        # Names are case-insensitive, as in get_scheduler; the session,
        # its journal header and its summary carry the lower-case one.
        name = algorithm.lower() if isinstance(algorithm, str) else algorithm
        if name not in ENGINE_OPTIONED:
            raise ValueError(
                f"online sessions support the engine heuristics "
                f"{sorted(ENGINE_OPTIONED)}, got {algorithm!r}")
        if comm_policy not in COMM_POLICIES:
            raise ValueError(f"comm_policy must be 'late' or 'eager', "
                             f"got {comm_policy!r}")
        self.platform = platform
        self.algorithm = name
        self.policy = make_policy(policy)
        self.comm_policy = comm_policy
        self.clock = 0.0
        self.jobs: dict[str, OnlineJob] = {}
        self._pending: list[OnlineJob] = []
        #: The folded never-revocable log prefix ...
        self._base = _Checkpoint(
            {m: MemoryProfile(platform.capacity(m))
             for m in platform.memories()},
            [0.0] * platform.n_procs, 0)
        #: ... and the decisions after it (at most the replan window): each
        #: the breakdown the round committed, its ``proc`` the placed one.
        self._tail: list[ESTBreakdown] = []
        #: ``{job_id: _JobBlock}`` of the jobs with a tail decision.
        self._blocks: dict[str, _JobBlock] = {}
        #: One row per planning round: floor, n_jobs, n_tasks, replanned,
        #: union_tasks (the round's live tasks plus their placed parents),
        #: replayed, ms.
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
        try:
            finite = math.isfinite(release)
        except OverflowError:   # an integer too large for a float
            finite = False
        if not (finite and release >= 0.0):
            raise ValueError(f"release time must be finite and >= 0, "
                             f"got {release!r}")
        index = len(self.jobs)   # accepted jobs only: a rejection takes none
        if job_id is None:
            job_id = f"job-{index:04d}"
        elif not isinstance(job_id, str):
            raise TypeError(f"job id must be a string, got {job_id!r}")
        if job_id in self.jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        if "/" in job_id:
            raise ValueError(f"job id {job_id!r} must not contain '/'")
        if len(set(map(str, graph.tasks()))) != graph.n_tasks:
            raise ValueError("job task ids must be distinct as strings")
        graph.validate()   # a cyclic graph would fail every round
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
        with obs.span("plan", policy=self.policy.name, floor=floor,
                      n_jobs=len(group)):
            work = self._replan_round(group, floor,
                                      self.policy.replan_window)
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
            **work,
            "ms": ms,
        })
        st = obs.active()
        if st is not None:
            st.registry.histogram("memsched_online_decision_seconds",
                                  policy=self.policy.name
                                  ).observe(ms / 1000.0)

    def _replan_round(self, group: list, floor: float,
                      window: int) -> dict:
        """Plan ``group`` at ``floor`` from the checkpoint: revoke the
        revocable tail, adopt the live tasks' placed parents, replay the
        kept tail, drive the heuristic over revoked + new tasks, and fold
        the decisions that leave the window into the new checkpoint.
        Returns the round's work: revoked decisions (``replanned``),
        union rows, live tasks plus ghosts (``union_tasks``), and
        kept-tail replays (``replayed``).

        A tail decision is revoked when its start lies beyond ``floor``.
        The kept set is ancestor-closed (a child never starts before its
        parent finishes) and the revoked set is descendant-closed
        (descendants commit later in the log and start later), so
        replaying the kept entries in log order is a valid partial
        schedule.  The session is only updated once the round succeeded.
        """
        base, tail = self._base, self._tail
        kept = [d for d in tail if d.est <= floor + _TIME_EPS]
        tail_ids: dict = {}
        for d in tail:
            tail_ids.setdefault(_split_ns(d.task)[0], []).append(d.task)
        jobs = sorted([self.jobs[job_id] for job_id in tail_ids] + group,
                      key=lambda job: job.arrival_index)
        blocks = [self._block(job) for job in jobs]
        live = [sorted(map(block.flat.index.__getitem__, tail_ids[job.job_id]))
                if job.job_id in tail_ids else range(block.flat.n_tasks)
                for job, block in zip(jobs, blocks)]
        union, ghosts = _round_union(blocks, live, self.platform.n_classes)
        state = SchedulerState(union, self.platform,
                               comm_policy=self.comm_policy)
        state.mem = dict(base.profiles)
        for proc, a in enumerate(base.avail):
            state.avail[proc] = a
        for task, (j, r) in zip(union.order, ghosts):
            placed = jobs[j].placements[blocks[j].keys[r]]
            state.adopt(Placement(task, *placed[1:]))
        state.pop_newly_ready()   # the driver derives readiness itself
        n_adopted = state.n_scheduled

        # The round commits ``end`` decisions (kept replays, then the
        # driver's), and the new log's never-revocable prefix ends
        # ``cut`` commits in — never before the round's start: every
        # revoked decision is re-placed, so the log does not shrink.
        end = union.n_tasks - state.n_scheduled
        cut = max(end - window, 0)
        # The round mutates the checkpoint's own profiles under an undo
        # log (copies would cost O(history) per round): on success they
        # are rolled back to the cut, which makes them the new
        # checkpoint, and on failure to where they were.
        for profile in base.profiles.values():
            profile.record()
        try:
            fold = _fold(state) if cut == 0 else None
            for n, decision in enumerate(kept, 1):
                state.commit(decision)
                state.pop_newly_ready()   # readiness comes from the log
                if n == cut:
                    fold = _fold(state)
            positions = (self._rank_positions(blocks, live)
                         if self.algorithm == "memheft" else None)
            records, fold_in_drive = self._drive(state, positions, floor,
                                                 cut - len(kept))
        except BaseException:
            for profile in base.profiles.values():
                profile.rollback()
                profile.forget()
            raise
        marks, avail = fold or fold_in_drive
        for m, profile in base.profiles.items():
            profile.rollback(marks[m])
            profile.forget()
        self._base = _Checkpoint(base.profiles, avail, base.length + cut)
        self._tail = (kept + records)[cut:]
        self._publish_placements(state, jobs, n_adopted)
        still_open = {_split_ns(d.task)[0] for d in self._tail}
        self._blocks = {job_id: block
                        for job_id, block in self._blocks.items()
                        if job_id in still_open}
        return {"replanned": len(tail) - len(kept),
                "union_tasks": union.n_tasks, "replayed": len(kept)}

    def _block(self, job: OnlineJob) -> _JobBlock:
        """The job's cached :class:`_JobBlock`, built on first use."""
        block = self._blocks.get(job.job_id)
        if block is None:
            block = self._blocks[job.job_id] = _JobBlock(job, self.platform)
        return block

    @staticmethod
    def _rank_positions(blocks, live) -> dict:
        """Each live task's position in MemHEFT's priority list, exactly
        ``rank_order(union graph, rng=None)`` restricted to the live
        tasks: non-increasing upward rank, ties in union insertion order
        (arrival, then node order) — one sort of the live rows' cached
        ranks."""
        keyed = sorted((block.neg_ranks[r], j, block.node_pos[r], r)
                       for j, (block, own) in enumerate(zip(blocks, live))
                       for r in own)
        return {blocks[j].flat.order[r]: k
                for k, (_, j, _, r) in enumerate(keyed)}

    def _drive(self, state: SchedulerState, positions: Optional[dict],
               floor: float,
               cut: int = -1) -> tuple[list[ESTBreakdown], Optional[tuple]]:
        """The offline heuristic's own selector
        (:func:`~repro.scheduling.driver.make_selector`), driven by the
        one loop of :mod:`repro.scheduling.driver` with the release-floor
        clamp — with ``floor == 0`` and nothing committed this is
        bit-for-bit the offline heuristic.  ``positions`` is MemHEFT's
        rank position per task (``None`` for the other heuristics).
        Returns the committed breakdowns (placed ``proc`` filled in) and,
        right after the ``cut``-th of them, the state's :func:`_fold`."""
        flat = state._flat
        selector = make_selector(self.algorithm, state, positions)
        if state.n_scheduled == 0:
            ready = flat.roots()
        else:
            ready = [t for t in flat.order if state.is_ready(t)]
        for task in ready:
            selector.push(task)
        n_left = flat.n_tasks - state.n_scheduled

        def infeasible(left: int) -> str:
            return (f"online {self.algorithm}: no pending task fits within "
                    f"the memory bounds ({left} tasks left, "
                    f"capacities={list(self.platform.capacities)})")

        records: list = []
        fold: Optional[tuple] = None
        if 0 < cut <= n_left:
            after = n_left - cut
            drive(state, selector, cut, lambda left: infeasible(left + after),
                  floor=floor, record=records)
            fold = _fold(state)
            n_left = after
        drive(state, selector, n_left, infeasible, floor=floor,
              record=records)
        return records, fold

    def _publish_placements(self, state: SchedulerState, jobs,
                            n_adopted: int) -> None:
        """Copy the placements the round state committed back into
        per-job views (original task names, node order).  The round
        adopts ``n_adopted`` placements before it commits anything, so
        the commits are the schedule's tail; a job planned for the first
        time gets its node-order dict here, and the other jobs' dicts
        keep their order and every task the round did not commit."""
        owners = {}
        for job in jobs:
            if job.placements is None:
                job.placements = dict.fromkeys(job.graph.tasks())
            block = self._block(job)
            owners[job.job_id] = (job.placements, block.keys,
                                  block.flat.index)
        for p in itertools.islice(state.schedule.placements(), n_adopted,
                                  None):
            job_id, _, name = p.task.partition("/")
            placements, keys, index = owners[job_id]
            placements[keys[index[p.task]]] = Placement(name, *p[1:])

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Latest finish over every committed placement (0.0 when
        nothing is planned yet; a job without tasks has no finish)."""
        finishes = [j.finish for j in self.jobs.values() if j.placements]
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
