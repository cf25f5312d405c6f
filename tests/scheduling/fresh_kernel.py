"""The from-scratch EST oracle the kernel tests compare against.

:class:`FreshKernel` recomputes every (task, memory) breakdown from the
``TaskGraph`` parent lists, the live staircases and the raw ``avail`` list
— no precedence cache, no breakdown memo (it reads and bumps none of the
state's memo counters), it always queries both fits, and it picks the
resource itself from ``state.avail`` and ``platform.speeds``, sharing no
resource code with the kernel.  No selector caches breakdowns of its
own, so a state running it schedules with no caching at all: it is the
memo's oracle.  Tests reach it the way the library reaches its own
kernel: assign it to ``state.kernel`` or patch
``repro.scheduling.state.resolve_backend``.
"""

import math

from repro.scheduling.kernel import (
    ESTBreakdown,
    ScalarKernel,
    infeasible_breakdown,
)


class FreshKernel(ScalarKernel):
    """§5.1 EST/EFT breakdowns recomputed from scratch on every call."""

    name = "fresh"

    def evaluate(self, state, task, memory) -> ESTBreakdown:
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

        w = graph.w(task, memory)
        floor = max(precedence, task_mem, comm_mem)
        procs = state.platform.procs(memory)
        speeds = state.platform.speeds
        avail = list(state.avail)
        if len({speeds[p] for p in procs}) == 1:
            # Uniform class: the earliest processor; which one is chosen
            # at commit time.
            resource = min(avail[p] for p in procs)
            duration = w / speeds[procs[0]]
            proc = -1
        else:
            # Earliest finish; ties to the later-available processor,
            # then the lower index.
            proc = min(procs, key=lambda p: (max(floor, avail[p])
                                             + w / speeds[p], -avail[p], p))
            resource = avail[proc]
            duration = w / speeds[proc]
        est = max(floor, resource)
        eft = est + duration if math.isfinite(est) else math.inf
        return ESTBreakdown(task, memory, resource, precedence, task_mem,
                            comm_mem, cmax, est, eft, comm_fit,
                            duration, proc)
