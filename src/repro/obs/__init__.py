"""`repro.obs` — unified metrics, tracing and structured logging.

One telemetry subsystem for the whole stack: a process-wide
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
fixed-bucket histograms), sha256-deterministic span tracing
(:mod:`repro.obs.tracing`), and JSON logging (:mod:`repro.obs.log`).
The scheduler, the service and the experiment sweeps are all
instrumented through the hooks here; surfaces are ``GET /metrics``
(Prometheus text exposition), ``--trace FILE`` on the CLI, and
``memsched obs report``.

Activation is process-wide — **zero overhead when disabled** means
every instrument site costs one module-global read and a ``None``
check:

* programmatically — :func:`enable` / the :func:`observing` context
  manager (tests, the CLI's ``--trace``);
* by environment — ``MEMSCHED_OBS=1``, read once per process on first
  use (pool workers inherit it, so worker-side cell timings work).

Instrumentation only ever *reads* scheduler and service state; with
observability on, every schedule, CSV and cached response stays
byte-identical to an uninstrumented run.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Optional

from . import log  # noqa: F401  (re-export: repro.obs.log.info(...))
from .metrics import (  # noqa: F401
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
)
from .tracing import Tracer, det_id, trace_id_for  # noqa: F401

#: Environment variable enabling observability (``1``/``true``/...).
ENV_VAR = "MEMSCHED_OBS"

_FALSEY = {"", "0", "false", "no", "off"}


class ObsState:
    """The live observability state: one registry, at most one tracer.

    ``handles`` is scratch space for hot instrument sites that cache
    resolved metric objects per state (the registry's get-or-create is
    cheap, but not thousands-of-runs-per-sweep cheap)."""

    __slots__ = ("registry", "tracer", "handles")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer
        self.handles: dict = {}


# ----------------------------------------------------------------------
# process-wide activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[ObsState] = None
_ENV_LOADED = False
_ENV_LOCK = threading.Lock()


def env_enabled() -> bool:
    """Whether :data:`ENV_VAR` asks for observability."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSEY


def enable(*, registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None) -> ObsState:
    """Install process-wide observability (replacing any); returns the
    new state.  An explicit enable wins over the environment."""
    global _ACTIVE, _ENV_LOADED
    with _ENV_LOCK:
        _ENV_LOADED = True
        _ACTIVE = ObsState(registry=registry, tracer=tracer)
        return _ACTIVE


def disable() -> None:
    """Turn observability off (explicitly: the environment is no longer
    consulted this process)."""
    global _ACTIVE, _ENV_LOADED
    with _ENV_LOCK:
        _ENV_LOADED = True
        state, _ACTIVE = _ACTIVE, None
    if state is not None and state.tracer is not None:
        state.tracer.close()


def active() -> Optional[ObsState]:
    """The live state, lazily loading :data:`ENV_VAR` on first call
    (once per process); ``None`` when observability is off — every
    instrument site checks exactly this."""
    global _ACTIVE, _ENV_LOADED
    if not _ENV_LOADED:
        with _ENV_LOCK:
            if not _ENV_LOADED:
                if env_enabled():
                    _ACTIVE = ObsState()
                _ENV_LOADED = True
    return _ACTIVE


@contextmanager
def observing(trace_path=None, *, trace_ident: tuple = ()):
    """Scope observability to a block, restoring the previous state —
    how tests and the CLI's ``--trace FILE`` enable the subsystem.

    With ``trace_path`` a :class:`Tracer` is attached whose trace id
    derives from ``trace_ident`` (deterministic: same invocation, same
    ids).  An already-active registry (``MEMSCHED_OBS=1``) is reused so
    metrics accumulate across the block boundary.
    """
    global _ACTIVE, _ENV_LOADED
    tracer = None
    if trace_path is not None:
        tracer = Tracer(trace_path,
                        trace_id=trace_id_for(*trace_ident)
                        if trace_ident else None)
    with _ENV_LOCK:
        previous, previous_loaded = _ACTIVE, _ENV_LOADED
        registry = previous.registry if previous is not None else None
        state = ObsState(registry=registry, tracer=tracer)
        _ACTIVE, _ENV_LOADED = state, True
    try:
        yield state
    finally:
        if tracer is not None:
            tracer.close()
        with _ENV_LOCK:
            _ACTIVE, _ENV_LOADED = previous, previous_loaded


# ----------------------------------------------------------------------
# ambient span helper
# ----------------------------------------------------------------------
class _NullSpan:
    """The do-nothing span returned when tracing is off; a singleton so
    the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span on the active tracer, or a no-op when tracing is off.
    Attributes must be JSON-serialisable."""
    state = active()
    if state is None or state.tracer is None:
        return NULL_SPAN
    return state.tracer.span(name, attrs or None)


def trace_context() -> Optional[tuple]:
    """``(trace_id, span_id_or_None)`` of the active tracer, or ``None``
    — what HTTP clients serialise into ``X-Trace-Id``/``X-Span-Id``."""
    state = active()
    if state is None or state.tracer is None:
        return None
    return state.tracer.context()
