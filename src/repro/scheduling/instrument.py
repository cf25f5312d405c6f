"""Observed driver loop shared by the lazy list-scheduling heuristics.

The three lazy drivers (MemHEFT / MemMinMin / MemSufferage) share one
select→commit→push shape; when :mod:`repro.obs` is active they run
through :func:`observed_lazy_run` instead, which times the select and
commit phases, folds the selector's :class:`~repro.scheduling.
candidates.SelectorStats` and the run counts into the metrics registry,
and emits per-phase child spans under the driver's algorithm span.
The un-observed drivers keep their original loops untouched — the
disabled path costs exactly one ``obs.active()`` check per run.
"""

from __future__ import annotations

import time
from typing import Callable

from .. import obs
from ..core.schedule import Schedule
from .state import InfeasibleScheduleError, SchedulerState

#: Stride of the observed loop's phase-timing samples: one iteration in
#: this many is clocked, the rest pay two integer ops and a branch.
PHASE_SAMPLE = 32


def observed_lazy_run(state: SchedulerState, selector, algorithm: str,
                      st, infeasible_msg: Callable[[int], str],
                      n_tasks: int = None) -> Schedule:
    """The lazy select/commit loop with per-phase timing; commits the
    exact same sequence as the plain loop (instrumentation only reads).

    ``n_tasks`` drives the loop as a countdown (MemHEFT's rank selector
    only holds *ready* tasks); with ``None`` the loop runs while the
    selector is non-empty (the MinEFT/Sufferage live sets).
    ``infeasible_msg`` receives the number of unscheduled tasks.

    Phase timings are *sampled*: every :data:`PHASE_SAMPLE`-th
    iteration is clocked and the totals scaled by the commit count at
    record time — an unbiased estimate under the fixed stride, at an
    eighth of the per-commit clock cost.  Counts stay exact.
    """
    perf = time.perf_counter
    select_s = commit_s = 0.0
    n_commits = n_sampled = 0
    countdown = 0           # iterations until the next clocked one
    # Two specialisations of one loop, so each iteration pays for
    # its own driver's shape only (the countdown drivers never
    # branch on ``n_tasks is None``, the live-set drivers never
    # track ``remaining``).
    if n_tasks is not None:
        remaining = n_tasks
        while remaining:
            if countdown == 0:
                t0 = perf()
                best = selector.select()
                t1 = perf()
                select_s += t1 - t0
            else:
                best = selector.select()
            if best is None:
                raise InfeasibleScheduleError(infeasible_msg(remaining))
            state.commit(best)
            selector.remove(best.task)
            remaining -= 1
            for task in state.pop_newly_ready():
                selector.push(task)
            if countdown == 0:
                commit_s += perf() - t1
                n_sampled += 1
                countdown = PHASE_SAMPLE - 1
            else:
                countdown -= 1
            n_commits += 1
    else:
        while len(selector):
            if countdown == 0:
                t0 = perf()
                best = selector.select()
                t1 = perf()
                select_s += t1 - t0
            else:
                best = selector.select()
            if best is None:
                raise InfeasibleScheduleError(
                    infeasible_msg(len(selector)))
            state.commit(best)
            selector.remove(best.task)
            for task in state.pop_newly_ready():
                selector.push(task)
            if countdown == 0:
                commit_s += perf() - t1
                n_sampled += 1
                countdown = PHASE_SAMPLE - 1
            else:
                countdown -= 1
            n_commits += 1
    schedule = state.finalize(algorithm)
    if n_sampled and n_sampled < n_commits:
        scale = n_commits / n_sampled
        select_s *= scale
        commit_s *= scale
    _record_run(st, selector, algorithm, select_s, commit_s, n_commits)
    return schedule


def _record_run(st, selector, algorithm: str, select_s: float,
                commit_s: float, n_commits: int) -> None:
    """Fold one run's phase timings and selector stats into the registry
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
    stats = getattr(selector, "stats", None)
    stats_dict = stats.as_dict() if stats is not None else {}
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
