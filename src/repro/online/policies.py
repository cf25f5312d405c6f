"""Arrival policies: when a released job becomes *due* for planning.

A policy maps a job's release time to the logical time at which the
session commits its placements.  The session plans all pending jobs that
share one due time in a single planning round, so a policy also controls
how arrivals group:

* ``immediate`` — plan every job the moment it is released
  (``due = release``), one round per distinct release time;
* ``batched:Q`` — quantize releases up to the next multiple of the
  quantum ``Q`` and plan each quantum's arrivals together (a release
  exactly on a boundary belongs to that boundary, so all-zero release
  times still collapse into one round);
* ``replan:W`` — greedy due times like ``immediate``, but each round may
  first *revoke* up to ``W`` of the most recent uncommitted decisions
  (placements whose start lies beyond the round's floor) and re-plan
  them together with the new arrivals, warm-started from the kept
  prefix of the decision log.

A policy is one immutable :class:`Policy` value, so two policies are the
same exactly when they compare equal, whatever spec spelt them.
:func:`make_policy` is the one place a policy is validated: it parses the
spec strings used by the CLI, the service and the benchmarks, and checks
a hand-built :class:`Policy` the same way.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple


class Policy(NamedTuple):
    """An arrival policy: ``kind`` is ``"immediate"``, ``"batched"`` or
    ``"replan"``; ``quantum`` is the batched quantum and
    ``replan_window`` the replan window (0 for the other kinds).  Build
    one with :func:`make_policy`."""

    kind: str = "immediate"
    quantum: float = 0.0
    replan_window: int = 0

    @property
    def name(self) -> str:
        """The canonical spec (journal headers, summaries, obs labels)."""
        if self.kind == "batched":
            return f"batched:{self.quantum:g}"
        if self.kind == "replan":
            return f"replan:{self.replan_window}"
        return self.kind

    def due(self, release: float) -> float:
        q = self.quantum
        if not q:
            return release
        # ceil to the next boundary; a release exactly on a boundary
        # (release 0 included) keeps that boundary as its due time.
        steps = math.ceil(release / q - 1e-12)
        return max(0.0, steps * q)


#: What each policy kind takes, for the error of a bad spec.
_USAGE = {"immediate": "'immediate' takes no argument",
          "batched": "want 'batched:Q' with a finite quantum > 0",
          "replan": "want 'replan:W' with an integer window >= 1"}


def make_policy(spec) -> Policy:
    """The :class:`Policy` of ``spec``: ``"immediate"``, ``"batched:Q"``
    or ``"replan:W"`` (case and whitespace aside), or a :class:`Policy`,
    checked like a parsed one.  A bad spec raises ``ValueError``."""
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        kind = kind.strip().lower()
        try:
            policy = (Policy(kind, float(arg)) if kind == "batched" else
                      Policy(kind, 0.0, int(arg)) if kind == "replan" else
                      Policy(kind, arg or 0.0))   # an argument: invalid
        except ValueError:
            policy = Policy(kind, math.nan)   # refused below
    elif isinstance(spec, Policy):
        policy = spec
    else:
        raise ValueError(f"policy spec must be a string or a Policy, "
                         f"got {type(spec)}")
    kind, quantum, window = policy
    if kind not in _USAGE:
        raise ValueError(f"unknown arrival policy {kind!r} "
                         f"(known: immediate, batched:Q, replan:W)")
    if kind == "immediate":
        valid = policy == Policy()
    elif kind == "batched":
        valid = (window == 0 and not isinstance(quantum, bool)
                 and isinstance(quantum, (int, float))
                 and 0.0 < quantum <= sys.float_info.max)
    else:
        valid = (quantum == 0 and not isinstance(window, bool)
                 and isinstance(window, int) and window >= 1)
    if not valid:
        raise ValueError(f"invalid {kind} policy {spec!r}: {_USAGE[kind]}")
    return Policy(kind, float(quantum), window)
