"""``repro.service`` — the always-on scheduling layer.

Every other entry point in this repository is a one-shot batch run; this
package turns the unified k-memory engine into a **long-lived scheduling
service**: a JSON-over-HTTP server (:mod:`repro.service.server`, started
via ``memsched serve``) that accepts graph/platform instances, schedules
them, and returns placements — the instance-config-and-schedule loop of
production schedulers.

Layers, transport-independent first:

* :mod:`repro.service.app` — request handling.  :class:`ServiceApp` routes
  ``POST /schedule``, ``POST /batch``, the ``/jobs`` online sessions,
  ``GET /algorithms``, ``GET /healthz`` and ``GET /metrics``; every scheduling request is deduplicated through a
  **content-addressed cache** (:class:`ScheduleCache`): the canonical
  sha256 digest of ``(graph, platform, algorithm, options)`` — see
  :func:`repro.io.json_io.canonical_digest` — keys an LRU of serialized
  response bodies, so a repeated instance is served from memory,
  byte-identical to the cold run.  The cache is in-memory only: a
  restarted service starts cold.  Batches fan their cache misses out over
  a :class:`concurrent.futures.ProcessPoolExecutor` through
  :func:`repro.experiments.engine.map_cells`.
* :mod:`repro.service.server` — the asyncio HTTP/1.1 transport
  (:class:`ServiceServer`), plus :class:`ThreadedServer` for embedding a
  live server in tests and benchmarks.
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  keep-alive client used by ``memsched submit`` and the load generator
  ``benchmarks/bench_service.py``.

Cached and cold responses are bit-identical to direct library calls
(enforced by ``tests/service/``).
"""

from .app import (
    ScheduleCache,
    ServiceApp,
    ServiceError,
    execute_request,
    normalize_options,
)
from .client import ServiceClient, ServiceClientError
from .server import ServiceServer, ThreadedServer, serve

__all__ = [
    "ServiceApp",
    "ServiceError",
    "ScheduleCache",
    "execute_request",
    "normalize_options",
    "ServiceServer",
    "ThreadedServer",
    "serve",
    "ServiceClient",
    "ServiceClientError",
]
