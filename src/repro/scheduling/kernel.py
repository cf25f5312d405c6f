"""The EST kernel: the numeric core of the §5.1 machinery.

The list-scheduling heuristics spend almost all of their time evaluating
:class:`ESTBreakdown` candidates — ``EST = max(resource, precedence,
task_mem, comm_mem + Cmax)``, ``EFT = EST + W/speed`` — against the partial
schedule.  :class:`ScalarKernel` packages that arithmetic, one candidate at
a time in pure Python, reading the data layout the
:class:`~repro.scheduling.state.SchedulerState` keeps for it: the cached
per-task precedence parts over the :class:`~repro.core.graph.FlatGraph`
CSR arrays, the per-class minimum avail times (``state.avail.mins``), and
the per-class breakdown memo ``{task: (profile version, ESTBreakdown)}``.
The kernel is stateless, so one instance (:func:`resolve_backend`) serves
every state.

**The breakdown memo.**  A ready task's precedence part never changes, and
its memory part (``task_mem``, ``comm_mem``) changes only when a commit
moves the class's :class:`~repro.core.memory_profile.MemoryProfile`,
which bumps the profile's ``version``.  A memo entry's memory part is
*valid* while that version is unchanged, or always on a class of infinite
capacity (``earliest_fit`` is identically ``0.0`` there, so profile moves
cannot change it).  Per (task, class) an evaluation has one of three
outcomes, counted on the state (``n_reused``, ``n_refreshes``,
``n_full_evals``):

* *reuse* — a valid entry of a uniform-speed class whose ``resource`` is
  still the class's ``min(avail)``: the cached breakdown is returned;
* *refresh* — any other valid entry: the memory and precedence parts are
  kept and only the resource half is recomputed, by the same code the
  full evaluation runs.  Heterogeneous classes, whose per-processor
  argmin depends on every processor's avail, always refresh;
* *full* — no entry yet, or the finite-capacity profile moved: the
  precedence part comes from the state's cache and both ``earliest_fit``
  queries run again.

Commits on unbounded classes, or in regions of the DAG that leave a
class's profile alone, therefore cost a candidate at most its resource
half, and nothing while the class's earliest processor stays put.  Every
selector reads the memo through ``state.est`` / ``state.best_est``.
Every cached component is bit-for-bit what a from-scratch evaluation
computes; the test suite checks that by substituting such an oracle
kernel through ``state.kernel``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from ..core.platform import Memory
    from .state import SchedulerState

Task = Hashable

_INF = math.inf
_new = tuple.__new__


class ESTBreakdown(NamedTuple):
    """All EST components for one (task, memory) candidate.

    A ``NamedTuple`` rather than a dataclass: the kernel constructs one per
    evaluated candidate on the hot path, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.  The hot path goes
    one step further and builds it as ``tuple.__new__(ESTBreakdown,
    (...))`` with all twelve fields in order: the generated ``__new__``
    costs a Python-level call with argument binding per breakdown, about
    twice the tuple build itself.  The result is the same object type,
    equal to the keyword-built value, with the same fields, properties,
    ``repr`` and pickling.
    """

    task: Task
    memory: "Memory"
    resource: float
    precedence: float
    task_mem: float
    comm_mem: float  # already includes the +Cmax term; 0.0 when no cross input
    cmax: float
    est: float
    eft: float
    #: Raw ``earliest_fit(cross inputs)`` value (no +Cmax); the eager
    #: transfer policy re-uses it at commit time.
    comm_fit: float = 0.0
    #: Execution time on the chosen resource (``W^(mu) / speed``); equals
    #: ``W^(mu)`` bit-for-bit on speed-1.0 processors.
    duration: float = math.inf
    #: Pre-chosen processor for heterogeneous classes (honoured by
    #: :meth:`SchedulerState.commit`); ``-1`` on uniform classes, where the
    #: processor is picked at commit time by ``choose_proc`` exactly as in
    #: the homogeneous engine.
    proc: int = -1

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.eft)


def infeasible_breakdown(task: Task, memory: "Memory") -> ESTBreakdown:
    inf = math.inf
    return ESTBreakdown(task, memory, inf, inf, inf, inf, 0.0, inf, inf)


class ScalarKernel:
    """The incremental EST kernel: one candidate at a time, pure Python."""

    name = "scalar"

    def evaluate(self, state: "SchedulerState", task: Task,
                 memory: "Memory") -> ESTBreakdown:
        """EST/EFT breakdown of a candidate through the state's per-class
        memo: reused, refreshed (resource half only) or evaluated in full
        (see the module docstring)."""
        idx = memory.index
        profile = state.mem[memory]
        version = profile.version
        memo = state._est_memo[idx]
        hit = memo.get(task)
        uniform = state._uniform[idx]
        row = state._row[task]
        if hit is not None and (hit[0] == version
                                or profile.capacity == _INF):
            # The memo only holds ready, unplaced tasks of classes with
            # processors (placing a task evicts it), so a hit is feasible.
            bd = hit[1]
            if uniform and bd.resource == state.avail.mins[idx]:
                state.n_reused += 1
                return bd
            state.n_refreshes += 1
            precedence = bd.precedence
            task_mem = bd.task_mem
            comm_mem = bd.comm_mem
            cmax = bd.cmax
            comm_fit = bd.comm_fit
        else:
            # state.is_ready(task) and a processor in the class, inlined: a
            # placed task has a memory class index (-1 until then).
            if (state._memidx[row] >= 0 or state._pending_parents[task]
                    or not state.platform.proc_counts[idx]):
                return infeasible_breakdown(task, memory)
            state.n_full_evals += 1
            parts = state._static.get(task)
            if parts is None:
                parts = state._precedence_parts(task)
            precedence, cmax, cross_in, need_task = parts[idx]
            task_mem = profile.earliest_fit(need_task)
            # need_task = cross_in + out_size >= cross_in and cap - x is
            # monotone, so a zero task fit (breakpoints past 0 are > 0, so
            # only "fits now") implies a zero cross-input fit.
            if cross_in > 0.0 or cmax > 0.0:
                comm_fit = (profile.earliest_fit(cross_in)
                            if task_mem != 0.0 else 0.0)
                comm_mem = comm_fit + cmax
            else:
                comm_fit = comm_mem = 0.0

        # The resource half, shared by refresh and full evaluation.
        w = state._flat.times[row][idx]
        if uniform:
            # min(avail) of the class (finite: it has processors, checked
            # above).  The processor is chosen at commit time.
            # ``max(resource, precedence, task_mem, comm_mem)`` as a
            # comparison chain: the same value (the first maximal operand
            # wins ties), without the builtin's call and iteration.
            est = resource = state.avail.mins[idx]
            if precedence > est:
                est = precedence
            if task_mem > est:
                est = task_mem
            if comm_mem > est:
                est = comm_mem
            duration = w / state.platform.max_class_speeds[idx]
            proc = -1
        else:
            floor = precedence
            if task_mem > floor:
                floor = task_mem
            if comm_mem > floor:
                floor = comm_mem
            proc, resource, duration = state._resource_choice(
                memory, floor, w)
            est = resource if resource > floor else floor
        eft = est + duration if est != _INF else _INF
        bd = _new(ESTBreakdown, (task, memory, resource, precedence, task_mem,
                                 comm_mem, cmax, est, eft, comm_fit, duration,
                                 proc))
        memo[task] = (version, bd)
        return bd


_SCALAR = ScalarKernel()


def resolve_backend() -> ScalarKernel:
    """The EST kernel every :class:`~repro.scheduling.state.
    SchedulerState` evaluates with."""
    return _SCALAR
