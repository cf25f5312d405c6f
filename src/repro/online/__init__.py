"""``repro.online`` — stateful online scheduling: jobs arrive over time
and the engine commits placements incrementally on one shared timeline.

Three layers (see the module docstrings for the mechanics):

* :mod:`repro.online.session` — :class:`OnlineSession`, the live
  timeline: submit graphs with release times, plan in rounds driven by
  an arrival policy, read back per-job placements and the deterministic
  decision journal;
* :mod:`repro.online.policies` — the arrival :class:`Policy` value
  (``immediate``, ``batched:Q``, ``replan:W``), parsed and checked by
  :func:`make_policy`;
* :mod:`repro.online.simulator` — the event-driven harness
  (:func:`simulate`) plus regret against the clairvoyant offline
  schedule; :mod:`repro.online.loadgen` generates seeded Poisson
  arrival traces for it.

The service exposes sessions over HTTP (``POST /jobs`` /
``GET /jobs/{id}``, protocol 5); ``memsched online`` is the CLI front
end.
"""

from .loadgen import poisson_trace, read_trace, write_trace, zero_release
from .policies import Policy, make_policy
from .session import (
    JOURNAL_VERSION,
    OnlineJob,
    OnlineSession,
    build_union_graph,
    clairvoyant_makespan,
)
from .simulator import OnlineResult, simulate

__all__ = [
    "JOURNAL_VERSION",
    "OnlineJob",
    "OnlineResult",
    "OnlineSession",
    "Policy",
    "build_union_graph",
    "clairvoyant_makespan",
    "make_policy",
    "poisson_trace",
    "read_trace",
    "simulate",
    "write_trace",
    "zero_release",
]
