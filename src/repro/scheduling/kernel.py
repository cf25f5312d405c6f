"""The EST kernel: the numeric core of the §5.1 machinery.

The list-scheduling heuristics spend almost all of their time evaluating
:class:`ESTBreakdown` candidates — ``EST = max(resource, precedence,
task_mem, comm_mem + Cmax)``, ``EFT = EST + W/speed`` — against the partial
schedule.  :class:`ScalarKernel` packages that arithmetic, one candidate at
a time in pure Python, reading the data layout the
:class:`~repro.scheduling.state.SchedulerState` keeps for it: the cached
per-task precedence parts over the :class:`~repro.core.graph.FlatGraph`
CSR arrays, and the per-``(task, class)`` ``earliest_fit`` memo keyed on
the profile ``version``.  The kernel is stateless, so one instance
(:func:`resolve_backend`) serves every state.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, NamedTuple, Optional, Sequence

from .._util import EPS

if TYPE_CHECKING:  # pragma: no cover
    from ..core.platform import Memory
    from .state import SchedulerState

Task = Hashable


class ESTBreakdown(NamedTuple):
    """All EST components for one (task, memory) candidate.

    A ``NamedTuple`` rather than a dataclass: the kernels construct one per
    evaluated candidate on the hot path, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
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
    def cls(self) -> int:
        """Memory-class index (generic alias for ``memory.index``)."""
        return self.memory.index

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.eft)


def infeasible_breakdown(task: Task, memory: "Memory") -> ESTBreakdown:
    inf = math.inf
    return ESTBreakdown(task, memory, inf, inf, inf, inf, 0.0, inf, inf)


class ScalarKernel:
    """The incremental EST kernel: one candidate at a time, pure Python."""

    name = "scalar"

    # -- single candidate ------------------------------------------------
    def evaluate(self, state: "SchedulerState", task: Task,
                 memory: "Memory") -> ESTBreakdown:
        """Incremental EST/EFT breakdown of a candidate: precedence parts
        cached per task, ``earliest_fit`` memoised per profile version."""
        if not state.is_ready(task) or state.platform.n_procs_of(memory) == 0:
            return infeasible_breakdown(task, memory)

        idx = memory.index
        precedence, cmax, cross_in, need_task = \
            state._precedence_parts(task)[idx]

        profile = state.mem[memory]
        slot = state._fit[idx]
        if slot[0] != profile.version:
            slot[0] = profile.version
            slot[1].clear()
            cached = None
        else:
            cached = slot[1].get(task)
        if cached is not None:
            task_mem, comm_fit = cached
        else:
            task_mem = profile.earliest_fit(need_task)
            comm_fit = (profile.earliest_fit(cross_in)
                        if cross_in > 0.0 or cmax > 0.0 else 0.0)
            slot[1][task] = (task_mem, comm_fit)
        comm_mem = comm_fit + cmax if cross_in > 0.0 or cmax > 0.0 else 0.0

        resource, est, duration, proc = state._resource_choice(
            memory, precedence, task_mem, comm_mem, state.graph.w(task, memory))
        eft = est + duration if math.isfinite(est) else math.inf
        return ESTBreakdown(task, memory, resource, precedence, task_mem,
                            comm_mem, cmax, est, eft, comm_fit,
                            duration, proc)

    def evaluate_fresh(self, state: "SchedulerState", task: Task,
                       memory: "Memory") -> ESTBreakdown:
        """From-scratch evaluation (the pre-incremental reference path,
        kept for cross-checks and the kernel benchmark): re-walks the
        parent list and re-queries the staircases, no caches."""
        if not state.is_ready(task) or state.platform.n_procs_of(memory) == 0:
            return infeasible_breakdown(task, memory)

        graph = state.graph
        precedence = 0.0
        cmax = 0.0
        cross_in = 0.0
        for parent in graph.parents(task):
            pp = state.schedule.placement(parent)
            if pp.memory is memory:
                precedence = max(precedence, pp.finish)
            else:
                c = graph.comm(parent, task)
                precedence = max(precedence, pp.finish + c)
                cmax = max(cmax, c)
                cross_in += graph.size(parent, task)

        need_task = cross_in + graph.out_size(task)
        task_mem = state.mem[memory].earliest_fit(need_task)

        comm_fit = 0.0
        if cross_in > 0.0 or cmax > 0.0:
            comm_fit = state.mem[memory].earliest_fit(cross_in)
            comm_mem = comm_fit + cmax
        else:
            comm_mem = 0.0

        resource, est, duration, proc = state._resource_choice(
            memory, precedence, task_mem, comm_mem, graph.w(task, memory))
        eft = est + duration if math.isfinite(est) else math.inf
        return ESTBreakdown(task, memory, resource, precedence, task_mem,
                            comm_mem, cmax, est, eft, comm_fit,
                            duration, proc)

    # -- batches ---------------------------------------------------------
    def evaluate_class_batch(self, state: "SchedulerState",
                             tasks: Sequence[Task],
                             memory: "Memory") -> list[ESTBreakdown]:
        """Breakdowns of all ``tasks`` on one memory class."""
        evaluate = self.evaluate
        return [evaluate(state, task, memory) for task in tasks]

    def best_est_batch(self, state: "SchedulerState",
                       tasks: Sequence[Task]) -> list[Optional[ESTBreakdown]]:
        """Per-task best-class choice over a whole candidate batch — the
        §5.1 memory-selection EPS-chain of :meth:`SchedulerState.best_est`
        replayed class-by-class over the per-class batches."""
        per_class = [self.evaluate_class_batch(state, tasks, m)
                     for m in state.memories]
        out: list[Optional[ESTBreakdown]] = []
        for b in range(len(tasks)):
            best: Optional[ESTBreakdown] = None
            for bds in per_class:
                bd = bds[b]
                if not bd.feasible:
                    continue
                if best is None or bd.eft < best.eft - EPS:
                    best = bd
            out.append(best)
        return out


_SCALAR = ScalarKernel()


def resolve_backend() -> ScalarKernel:
    """The EST kernel every :class:`~repro.scheduling.state.
    SchedulerState` evaluates with."""
    return _SCALAR
