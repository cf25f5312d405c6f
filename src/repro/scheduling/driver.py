"""The one select→commit list-scheduling loop and the one table of
selectors it runs.

MemHEFT (Algorithm 1), MemMinMin (Algorithm 2) and MemSufferage share
one loop: select a (task, memory) pair, commit it, release its children.
Only the selection rule differs, and it lives in the selector
(:mod:`repro.scheduling.candidates`).  :data:`SELECTORS` is the only
place an engine heuristic is mapped to its selector and tie order, and
:func:`make_selector` the only place a selector is built: MemMinMin's
lazy :class:`~repro.scheduling.candidates.MinEFTSelector`, or
:class:`~repro.scheduling.candidates.ScanSelector`'s ordered rescans for
MemHEFT (rank position) and MemSufferage (topological row).  :func:`drive`
is the loop — every offline run, observed or not, and every online
planning round runs it — and :func:`run` wraps it for an offline
heuristic.

Under :mod:`repro.obs`, :func:`run` times the select and commit phases,
folds the state's breakdown-memo counters
(:meth:`~repro.scheduling.state.SchedulerState.eval_counts`: full
evaluations, refreshes and reuses, for every heuristic) and the run counts
into the metrics registry, and emits per-phase child
spans under the algorithm span.  Unobserved runs never read the clock.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Optional

from .. import obs
from ..core.schedule import Schedule
from .candidates import MinEFTSelector, ScanSelector, first_fit, max_sufferage
from .state import ESTBreakdown, InfeasibleScheduleError, SchedulerState

#: Each engine heuristic's selector, called as ``(state, order)`` with
#: ``order`` the tie order (task -> stable index).
SELECTORS: dict[str, Callable] = {
    "memheft": partial(ScanSelector, rule=first_fit),
    "memminmin": MinEFTSelector,
    "memsufferage": partial(ScanSelector, rule=max_sufferage),
}

#: Stride of the observed loop's phase-timing samples: one decision in
#: this many is clocked, the rest pay an integer decrement and a branch.
PHASE_SAMPLE = 32


def make_selector(algorithm: str, state: SchedulerState,
                  positions: Optional[dict] = None):
    """``algorithm``'s selector over ``state``.  MemHEFT's tie order is
    its rank ``positions`` (task -> position in the priority list); the
    others break ties on the state's topological row index."""
    order = positions if algorithm == "memheft" else state._flat.index
    return SELECTORS[algorithm](state, order)


def drive(state: SchedulerState, selector, n: int,
          infeasible: Callable[[int], str], *, floor: float = 0.0,
          record: Optional[list] = None,
          clock: Optional[list] = None) -> None:
    """Commit ``n`` decisions of ``selector`` on ``state``.

    Per decision: ``select()``; on ``None`` raise
    :class:`InfeasibleScheduleError` with ``infeasible(left)`` (``left``
    counts the decisions still owed, this one included); clamp the start
    to ``floor`` (an online round's release floor; ``0.0`` is the
    identity, every EST being non-negative); commit; drop the task from
    the selector; push the tasks the commit made ready.

    ``record`` receives each committed breakdown, with the placed
    processor filled in: committing it again on a state in the same
    position replays the decision with zero EST evaluations.
    ``clock`` is a ``[select_s, commit_s, n_sampled]`` accumulator: when
    given, every :data:`PHASE_SAMPLE`-th decision is timed into it (the
    first one included).
    """
    perf = time.perf_counter
    # Without a clock the countdown never reaches zero.
    countdown = 0 if clock is not None else n + 1
    left = n
    while left:
        if countdown:
            best = selector.select()
        else:
            t0 = perf()
            best = selector.select()
            t1 = perf()
            clock[0] += t1 - t0
        if best is None:
            raise InfeasibleScheduleError(infeasible(left))
        if floor > best.est:
            best = best._replace(est=floor, eft=floor + best.duration)
        placement = state.commit(best)
        if record is not None:
            # ``best._replace(proc=...)``, at half its cost: ``proc`` is
            # the last field.
            record.append(ESTBreakdown(*best[:-1], placement.proc))
        selector.remove(best.task)
        left -= 1
        for task in state.pop_newly_ready():
            selector.push(task)
        if countdown:
            countdown -= 1
        else:
            clock[1] += perf() - t1
            clock[2] += 1
            countdown = PHASE_SAMPLE - 1


def run(state: SchedulerState, algorithm: str,
        infeasible: Callable[[int, int], str],
        rank: Optional[Callable[[], dict]] = None) -> Schedule:
    """Schedule every task of ``state``'s graph with ``algorithm``: build
    its selector (:func:`make_selector`), push the roots, :func:`drive`
    one decision per task and finalize.  ``infeasible(left, available)``
    words the failure from the decisions still owed and the selector's
    ready count; ``rank()`` computes MemHEFT's rank positions.

    Under :mod:`repro.obs` the whole run is an ``algorithm`` span (the
    positions are computed inside it, so MemHEFT's rank span nests there)
    and its sampled phase timings and memo counters are recorded.
    """
    n = state.graph.n_tasks
    st = obs.active()
    clock = None if st is None else [0.0, 0.0, 0]
    with obs.span(algorithm, n_tasks=n):
        selector = make_selector(
            algorithm, state, None if rank is None else rank())
        for task in state.ready_roots():
            selector.push(task)
        drive(state, selector, n,
              lambda left: infeasible(left, len(selector)), clock=clock)
        schedule = state.finalize(algorithm)
        if st is not None:
            select_s, commit_s, n_sampled = clock
            # Scale the sampled totals by the commit count: an unbiased
            # estimate under the fixed stride.  Counts stay exact.
            if n_sampled and n_sampled < n:
                scale = n / n_sampled
                select_s *= scale
                commit_s *= scale
            _record_run(st, state, algorithm, select_s, commit_s, n)
    return schedule


def _record_run(st, state: SchedulerState, algorithm: str, select_s: float,
                commit_s: float, n_commits: int) -> None:
    """Fold one run's phase timings and memo counters into the registry
    and, when tracing, emit aggregate per-phase child spans.  Metric
    handles cache on the :class:`~repro.obs.ObsState` so a sweep's
    thousands of runs skip the registry's label-key construction."""
    handles = st.handles.get(algorithm)
    if handles is None:
        registry = st.registry
        handles = st.handles[algorithm] = (
            registry.counter("memsched_schedule_runs_total",
                             algorithm=algorithm),
            registry.counter("memsched_commits_total",
                             algorithm=algorithm),
            registry.counter("memsched_phase_seconds_total",
                             algorithm=algorithm, phase="select"),
            registry.counter("memsched_phase_seconds_total",
                             algorithm=algorithm, phase="commit"),
            {},
        )
    runs_c, commits_c, select_c, commit_c, eval_counters = handles
    runs_c.inc()
    commits_c.inc(n_commits)
    select_c.inc(select_s)
    commit_c.inc(commit_s)
    stats_dict = state.eval_counts()
    for key, count in stats_dict.items():
        counter = eval_counters.get(key)
        if counter is None:
            # n_full_evals -> kind="full_evals" etc.
            counter = eval_counters[key] = st.registry.counter(
                "memsched_selector_evals_total", algorithm=algorithm,
                kind=key.removeprefix("n_"))
        counter.inc(count)
    tracer = st.tracer
    if tracer is None:
        return
    parent = tracer.current()
    select_attrs: dict = {"n_commits": n_commits}
    select_attrs.update(stats_dict)
    tracer.emit("select", span_id=tracer.child_id(parent, "select"),
                parent_id=parent, dur=select_s, attrs=select_attrs)
    tracer.emit("commit", span_id=tracer.child_id(parent, "commit"),
                parent_id=parent, dur=commit_s,
                attrs={"n_commits": n_commits})
