"""Transport-independent request handling for the scheduling service.

:class:`ServiceApp` is a plain object mapping ``(method, path, body)`` to
``(status, headers, body)`` — the :mod:`http.server` transport in
:mod:`repro.service.server` is only a thin HTTP shell around it, so the
whole protocol is unit-testable without sockets.

**Content-addressed caching.**  Every scheduling request is normalised and
hashed with :func:`repro.io.json_io.canonical_digest`; the digest keys an
LRU (:class:`ScheduleCache`) whose values are the *serialized response
bodies*.  A cache hit therefore returns the exact bytes the cold run
produced — bit-identity between cached, cold and direct library calls is
structural, not a property to maintain.  Whether a response was served
from cache travels in the ``X-Cache: hit|miss`` header, never in the body
(the body must not depend on cache state).  The cache lives in process
memory only, so a restarted service recomputes and revalidates every
schedule before serving it again.

**Batch offload.**  ``POST /batch`` deduplicates its instances against the
cache *and against each other* (two identical instances in one batch are
scheduled once), then fans the remaining unique misses out over a
*persistent* :class:`concurrent.futures.ProcessPoolExecutor` built with
the :func:`repro.experiments.engine.map_cells` worker/payload pattern
(same ``_init_worker``/``_call_cell`` machinery, worker spawn paid once
per service lifetime, not per request), so serial (``workers=1``) and
parallel batches produce identical bytes by construction.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from typing import Optional
from urllib.parse import parse_qs, unquote

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .. import obs
from ..core.validation import ScheduleError, validate_schedule
from ..obs.metrics import MetricsRegistry
from ..experiments.engine import _call_cell, _init_worker, default_chunk_size
from ..io.json_io import (
    DIGEST_SCHEMA_VERSION,
    canonical_digest,
    canonical_json,
    graph_from_dict,
    platform_from_dict,
    platform_to_dict,
    schedule_to_dict,
)
from ..scheduling.registry import (
    ENGINE_OPTIONED,
    MEMORY_OBLIVIOUS,
    SCHEDULERS,
)
from ..scheduling.state import COMM_POLICIES, InfeasibleScheduleError
from ..online import OnlineSession

#: Protocol revision, reported by ``GET /healthz``.  v2 added the
#: ``POST /cells`` experiment-cell endpoint; v3 adds
#: ``GET /metrics``, the ``metrics_summary`` healthz block, and
#: ``X-Trace-Id``/``X-Span-Id`` propagation; v4 adds the ``kernel``
#: healthz block (active/available EST kernels — pinned to the one
#: scalar kernel since it replaced the alternatives); v5 adds the
#: stateful online-session surface — ``POST /jobs`` (submit a graph
#: with a release time into a named session), ``GET /jobs`` (session
#: summary + decision journal), ``GET /jobs/{id}`` — and the
#: ``sessions`` healthz block.  v2–v5 were additive.  v6 removed
#: ``POST /cells`` (now a 404) with the healthz ``cells``, ``cell_wire``
#: and ``faults`` entries; every other route is unchanged.  v7 dropped
#: the healthz ``kernel`` block and ``cache.persistent`` (the cache is
#: in-memory only); every route and response body is unchanged.
PROTOCOL_VERSION = 7

#: ``lazy`` no longer reaches the library (each heuristic has one
#: selector), but it stays accepted, checked, default-filled and hashed,
#: so request digests and cached bodies are unchanged; only
#: ``comm_policy`` is passed on.
_DEFAULT_OPTIONS = {"comm_policy": "late", "lazy": True}

#: Supervised pool-restart budget per ``/batch`` request: a worker-process
#: death rebuilds the pool and retries up to this many times (with
#: backoff) before the failure is surfaced to the client.
POOL_RESTARTS = 2

#: Paths that get their own ``endpoint`` label on the request metrics;
#: anything else collapses into ``other`` so scrapes stay bounded no
#: matter what clients probe.
_KNOWN_ENDPOINTS = frozenset(
    {"/schedule", "/batch", "/algorithms", "/healthz", "/metrics", "/jobs"})


class ServiceError(Exception):
    """A request that cannot be served; carries the HTTP status to emit.

    ``err_type`` is a stable machine-readable slug (``bad_request``,
    ``unknown_algorithm``, ``infeasible``, ...), ``message`` the human
    explanation.
    """

    def __init__(self, status: int, err_type: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.err_type = err_type
        self.message = message

    def to_body(self) -> bytes:
        return canonical_json(
            {"error": {"status": self.status, "type": self.err_type,
                       "message": self.message}}
        ).encode("utf-8")


def normalize_options(options: Optional[dict], algorithm: str) -> dict:
    """Validate and default-fill the per-request engine options.

    Filling the defaults *before* hashing means ``{}``,
    ``{"comm_policy": "late"}`` and ``None`` all address the same cache
    entry.  Unknown keys and options on algorithms that do not take them
    are rejected rather than silently ignored — they would otherwise
    fragment the cache without changing the result.
    """
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise ServiceError(400, "bad_request", "'options' must be an object")
    unknown = set(options) - set(_DEFAULT_OPTIONS)
    if unknown:
        raise ServiceError(
            400, "bad_request",
            f"unknown options: {sorted(unknown)} "
            f"(known: {sorted(_DEFAULT_OPTIONS)})")
    out = dict(_DEFAULT_OPTIONS)
    out.update(options)
    if out["comm_policy"] not in COMM_POLICIES:
        raise ServiceError(400, "bad_request",
                           f"comm_policy must be 'late' or 'eager', "
                           f"got {out['comm_policy']!r}")
    if not isinstance(out["lazy"], bool):
        raise ServiceError(400, "bad_request",
                           f"lazy must be true or false, "
                           f"got {out['lazy']!r}")
    if algorithm not in ENGINE_OPTIONED and out != _DEFAULT_OPTIONS:
        raise ServiceError(
            400, "bad_request",
            f"algorithm {algorithm!r} takes no engine options")
    return out


def request_digest(graph_d: dict, platform_d: dict, algorithm: str,
                   options: dict) -> str:
    """:func:`canonical_digest` with protocol-level error mapping: JSON
    payloads can smuggle ``Infinity``/``NaN`` literals past parsing (Python
    accepts them by default), which canonical JSON rejects — that is the
    *request's* fault, not the server's."""
    try:
        return canonical_digest(graph_d, platform_d, algorithm, options)
    except ValueError as exc:
        raise ServiceError(
            400, "bad_request",
            f"non-finite numbers in request (serialize unbounded "
            f"capacities as null): {exc}") from exc


def parse_request(req: object) -> tuple[dict, dict, str, dict]:
    """Validate the shape of one scheduling request; returns the
    ``(graph_dict, platform_dict, algorithm, options)`` quadruple."""
    if not isinstance(req, dict):
        raise ServiceError(400, "bad_request",
                           "request body must be a JSON object")
    missing = [k for k in ("graph", "platform") if k not in req]
    if missing:
        raise ServiceError(400, "bad_request",
                           f"missing required fields: {missing}")
    graph_d, platform_d = req["graph"], req["platform"]
    if not isinstance(graph_d, dict) or not isinstance(platform_d, dict):
        raise ServiceError(400, "bad_request",
                           "'graph' and 'platform' must be JSON objects")
    algorithm = str(req.get("algorithm", "memheft")).lower()
    if algorithm not in SCHEDULERS:
        raise ServiceError(
            400, "unknown_algorithm",
            f"unknown algorithm {algorithm!r}; known: "
            f"{', '.join(sorted(SCHEDULERS))}")
    options = normalize_options(req.get("options"), algorithm)
    return graph_d, platform_d, algorithm, options


def execute_request(graph_d: dict, platform_d: dict, algorithm: str,
                    options: dict, digest: str) -> bytes:
    """Run one scheduling instance to a serialized response body.

    The single cold path shared by ``/schedule``, the in-process half of
    ``/batch`` and the pool workers — identical bytes wherever it runs.
    The schedule is revalidated by the independent validator before being
    served; the reported ``peaks`` are the validator's (replay-side), one
    entry per memory class.
    """
    try:
        graph = graph_from_dict(graph_d)
        platform = platform_from_dict(platform_d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(400, "bad_request",
                           f"malformed graph/platform: {exc}") from exc
    if graph.n_classes != platform.n_classes:
        raise ServiceError(
            400, "bad_request",
            f"graph has {graph.n_classes} memory classes but the platform "
            f"has {platform.n_classes}")
    try:
        graph.validate()
    except ValueError as exc:
        raise ServiceError(400, "bad_request", str(exc)) from exc

    scheduler = SCHEDULERS[algorithm]
    kwargs = ({"comm_policy": options["comm_policy"]}
              if algorithm in ENGINE_OPTIONED else {})
    try:
        schedule = scheduler(graph, platform, **kwargs)
    except InfeasibleScheduleError as exc:
        raise ServiceError(422, "infeasible", str(exc)) from exc
    try:
        peaks = validate_schedule(graph, platform, schedule)
    except ScheduleError as exc:  # pragma: no cover - scheduler bug guard
        raise ServiceError(500, "internal",
                           f"scheduler produced an invalid schedule: {exc}"
                           ) from exc
    response = {
        "digest": digest,
        "algorithm": algorithm,
        "makespan": schedule.makespan,
        "peaks": [peaks[m] for m in platform.memories()],
        "schedule": schedule_to_dict(schedule),
    }
    return canonical_json(response).encode("utf-8")


def _batch_worker(payload: object, cache: dict, cell: tuple) -> tuple:
    """Pool worker for ``/batch`` cache misses (top-level for pickling).

    ``cell`` is ``(graph_d, platform_d, algorithm, options, digest)``;
    returns ``("ok", body)`` or ``("error", status, err_type, message)`` so
    per-instance failures don't poison the whole batch.
    """
    graph_d, platform_d, algorithm, options, digest = cell
    try:
        return ("ok", execute_request(graph_d, platform_d, algorithm,
                                      options, digest))
    except ServiceError as exc:
        return ("error", exc.status, exc.err_type, exc.message)


def _stop_pool(pool) -> None:
    """Shut a worker pool down without leaving orphans.

    ``shutdown(wait=False)`` alone is not enough after a worker death:
    the broken executor's surviving siblings may never receive their exit
    sentinel and then outlive the service forever, pinned on the
    call-queue pipe — still holding every file descriptor they inherited
    at fork (client connections, stdout).  So after the polite shutdown,
    terminate whatever is provably still alive."""
    if pool is None:
        return
    procs = [p for p in getattr(pool, "_processes", {}).values()
             if p is not None]
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()


class ScheduleCache:
    """Thread-safe content-addressed LRU over serialized response bodies.

    The cache lives in process memory only: a restarted service starts
    cold and recomputes (and revalidates) every schedule it serves.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, digest: str) -> Optional[bytes]:
        with self._lock:
            body = self._data.get(digest)
            if body is None:
                self.misses += 1
                return None
            self._data.move_to_end(digest)
            self.hits += 1
            return body

    def put(self, digest: str, body: bytes) -> None:
        with self._lock:
            if digest in self._data:
                self._data.move_to_end(digest)
                return  # identical by construction: same digest, same bytes
            self._data[digest] = body
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_JSON_HEADERS = {"Content-Type": "application/json"}


class _SessionEntry:
    """One named online session plus the lock that serializes it."""

    __slots__ = ("session", "lock")

    def __init__(self, session: OnlineSession) -> None:
        self.session = session
        self.lock = threading.Lock()


class ServiceApp:
    """Routes service requests; owns the cache and the worker count."""

    def __init__(self, workers: int = 1, cache_size: int = 1024) -> None:
        self.workers = max(1, int(workers))
        self.cache = ScheduleCache(cache_size)
        self.started_at = time.monotonic()
        self.n_requests = 0
        self.n_pool_restarts = 0
        self._count_lock = threading.Lock()
        # Raw-body fast path: sha256 of the exact request bytes -> canonical
        # digest.  A byte-identical resubmission skips JSON parsing and
        # canonicalization entirely — for a 1000-task graph that is most of
        # the warm-path cost.  Differently-formatted but equivalent bodies
        # miss here and fall through to the canonical path (and still hit
        # the content-addressed cache).
        self._raw_index: "OrderedDict[bytes, str]" = OrderedDict()
        self._raw_lock = threading.Lock()
        # Persistent batch pool (lazy): an always-on service cannot afford
        # worker spawn + package import per /batch request.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # Online sessions (name -> _SessionEntry).  The outer lock only
        # guards the registry; each entry carries its own lock so rounds
        # in different sessions run concurrently while one session's
        # submissions serialize (OnlineSession is not thread-safe).
        self._sessions: dict[str, _SessionEntry] = {}
        self._sessions_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the batch worker pool (idempotent; the next
        ``/batch`` dispatch would build a fresh one)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        _stop_pool(pool)

    def _batch_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, initialised with the same
        worker/payload pattern :func:`repro.experiments.engine.map_cells`
        uses — the worker and payload never change, so one initializer
        call per worker process serves every ``/batch`` request for the
        service's lifetime."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(_batch_worker, None))
            return self._pool

    def _note_pool_restart(self, attempt: int) -> None:
        """Account one supervised restart and back off before rebuilding
        (a host that kills workers instantly must not spin)."""
        with self._count_lock:
            self.n_pool_restarts += 1
        time.sleep(min(1.0, 0.05 * (2 ** (attempt - 1))))

    def _run_batch(self, cells: list) -> list:
        """Fan batch cells out (persistent pool) or run them in-process.

        A worker-process death (``BrokenProcessPool``) is supervised: the
        pool is rebuilt and the batch retried up to :data:`POOL_RESTARTS`
        times — batch cells are pure, so a retry produces identical
        bytes — before a structured 500 is surfaced.
        """
        if self.workers <= 1 or len(cells) <= 1:
            cache: dict = {}
            return [_batch_worker(None, cache, cell) for cell in cells]
        attempt = 0
        while True:
            try:
                return list(self._batch_pool().map(
                    _call_cell, cells,
                    chunksize=default_chunk_size(len(cells), self.workers)))
            except BrokenProcessPool as exc:
                self.close()   # the next dispatch rebuilds the pool
                attempt += 1
                if attempt > POOL_RESTARTS:
                    raise ServiceError(
                        500, "worker_pool",
                        f"batch worker pool died ({exc}) and "
                        f"{POOL_RESTARTS} supervised restarts were "
                        f"exhausted; pool reset, retry the request"
                    ) from exc
                self._note_pool_restart(attempt)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes,
               ctx: Optional[tuple] = None) -> tuple[int, dict, bytes]:
        """Serve one request; returns ``(status, headers, body_bytes)``.

        Never raises for protocol-level problems — they become structured
        JSON error bodies — so the transport layer stays dumb.  ``ctx`` is
        the caller's trace context ``(trace_id, span_id)``, parsed from the
        ``X-Trace-Id``/``X-Span-Id`` headers by the transport (``None``
        when absent); with a tracer active it is recorded on the
        ``request`` span as ``caller_trace``/``caller_span``, so a
        client's trace and the service's join up.  It never reaches
        response bodies.
        """
        with self._count_lock:
            self.n_requests += 1
        path, _, query = path.partition("?")
        st = obs.active()
        if st is None:
            return self._route(method, path, query, body)
        if path in _KNOWN_ENDPOINTS:
            endpoint = path
        elif path.startswith("/jobs/"):
            endpoint = "/jobs"   # /jobs/{id} must not explode the label set
        else:
            endpoint = "other"
        inflight = st.registry.gauge("memsched_http_inflight_requests")
        inflight.inc()
        caller = ({} if ctx is None else
                  {"caller_trace": ctx[0], "caller_span": ctx[1]})
        t0 = time.perf_counter()
        try:
            with obs.span("request", endpoint=endpoint, **caller):
                status, headers, out = self._route(method, path, query,
                                                   body)
        finally:
            inflight.dec()
        st.registry.histogram("memsched_http_request_seconds",
                              endpoint=endpoint).observe(
                                  time.perf_counter() - t0)
        st.registry.counter("memsched_http_requests_total",
                            endpoint=endpoint, status=str(status)).inc()
        return status, headers, out

    def _route(self, method: str, path: str, query: str,
               body: bytes) -> tuple[int, dict, bytes]:
        try:
            if path == "/schedule":
                self._require(method, "POST", path)
                return self._handle_schedule(body)
            if path == "/batch":
                self._require(method, "POST", path)
                return self._handle_batch(body)
            if path == "/jobs" or path.startswith("/jobs/"):
                return self._handle_jobs(method, path, query, body)
            if path == "/algorithms":
                self._require(method, "GET", path)
                return self._handle_algorithms()
            if path == "/healthz":
                self._require(method, "GET", path)
                return self._handle_healthz()
            if path == "/metrics":
                self._require(method, "GET", path)
                return self._handle_metrics()
            raise ServiceError(404, "not_found", f"unknown path {path!r}")
        except ServiceError as exc:
            return exc.status, dict(_JSON_HEADERS), exc.to_body()
        except Exception as exc:   # noqa: BLE001 — a bug must answer 500,
            # not tear the connection down (the transport only handles
            # socket errors, and a dropped socket makes the client retry).
            err = ServiceError(500, "internal",
                               f"{type(exc).__name__}: {exc}")
            return err.status, dict(_JSON_HEADERS), err.to_body()

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ServiceError(405, "method_not_allowed",
                               f"{path} only accepts {expected}")

    @staticmethod
    def _parse_body(body: bytes) -> object:
        try:
            return json.loads(body)
        except ValueError as exc:   # bad JSON or UTF-8, too long an integer
            raise ServiceError(400, "bad_request",
                               f"invalid JSON body: {exc}") from exc
        except RecursionError as exc:
            raise ServiceError(400, "bad_request",
                               "JSON body nested too deeply") from exc

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _handle_schedule(self, body: bytes) -> tuple[int, dict, bytes]:
        headers = dict(_JSON_HEADERS)
        raw_key = hashlib.sha256(body).digest()
        with self._raw_lock:
            digest = self._raw_index.get(raw_key)
            if digest is not None:
                self._raw_index.move_to_end(raw_key)
        parsed = None
        if digest is None:
            parsed = parse_request(self._parse_body(body))
            digest = request_digest(*parsed)
            with self._raw_lock:
                self._raw_index[raw_key] = digest
                while len(self._raw_index) > self.cache.capacity:
                    self._raw_index.popitem(last=False)
        cached = self.cache.get(digest)
        if cached is not None:
            headers["X-Cache"] = "hit"
            return 200, headers, cached
        if parsed is None:  # raw alias outlived the cached response
            parsed = parse_request(self._parse_body(body))
        out = execute_request(*parsed, digest)
        self.cache.put(digest, out)
        headers["X-Cache"] = "miss"
        return 200, headers, out

    def _handle_batch(self, body: bytes) -> tuple[int, dict, bytes]:
        payload = self._parse_body(body)
        if not isinstance(payload, dict) or "requests" not in payload:
            raise ServiceError(400, "bad_request",
                               "batch body must be {\"requests\": [...]}")
        requests = payload["requests"]
        if not isinstance(requests, list):
            raise ServiceError(400, "bad_request",
                               "'requests' must be an array")

        # Resolve each instance to either an error body, a cached body, or
        # a position in the unique-miss work list.
        results: list[Optional[bytes]] = [None] * len(requests)
        cached_flags = [False] * len(requests)
        miss_index: dict[str, int] = {}   # digest -> index into cells
        cells: list[tuple] = []
        slots: list[list[int]] = []       # cells[i] fills slots[i]
        for pos, req in enumerate(requests):
            try:
                graph_d, platform_d, algorithm, options = parse_request(req)
                digest = request_digest(graph_d, platform_d, algorithm,
                                        options)
            except ServiceError as exc:
                results[pos] = exc.to_body()
                continue
            hit = self.cache.get(digest)
            if hit is not None:
                results[pos] = hit
                cached_flags[pos] = True
                continue
            ci = miss_index.get(digest)
            if ci is None:
                ci = miss_index[digest] = len(cells)
                cells.append((graph_d, platform_d, algorithm, options, digest))
                slots.append([pos])
            else:
                slots[ci].append(pos)   # duplicate within the batch
                cached_flags[pos] = True

        if cells:
            outcomes = self._run_batch(cells)
            for cell, outcome, fills in zip(cells, outcomes, slots):
                if outcome[0] == "ok":
                    out = outcome[1]
                    self.cache.put(cell[4], out)
                else:
                    out = ServiceError(*outcome[1:]).to_body()
                for pos in fills:
                    results[pos] = out

        # Splice the per-instance bodies verbatim: each array element is
        # byte-identical to the corresponding /schedule response.
        joined = b",".join(results)  # type: ignore[arg-type]
        out_body = (b'{"cached":' + canonical_json(cached_flags).encode()
                    + b',"results":[' + joined + b"]}")
        return 200, dict(_JSON_HEADERS), out_body

    # ------------------------------------------------------------------
    # online sessions: POST /jobs, GET /jobs, GET /jobs/{id}
    # ------------------------------------------------------------------
    @staticmethod
    def _query_params(query: str) -> dict:
        return {k: v[-1] for k, v in parse_qs(query).items()}

    def _session_entry(self, name: str) -> _SessionEntry:
        with self._sessions_lock:
            entry = self._sessions.get(name)
        if entry is None:
            raise ServiceError(404, "unknown_session",
                               f"no online session named {name!r}")
        return entry

    def _ensure_session(self, name: str, payload: dict) -> _SessionEntry:
        """Get-or-create the named session; the first request fixes its
        platform/algorithm/policy, later requests may restate them but a
        conflicting restatement is a 409 (silent drift would make two
        clients disagree about what timeline they share)."""
        with self._sessions_lock:
            entry = self._sessions.get(name)
            if entry is not None:
                self._check_session_config(name, entry.session, payload)
                return entry
            platform_d = payload.get("platform")
            if not isinstance(platform_d, dict):
                raise ServiceError(
                    400, "bad_request",
                    f"the first request for session {name!r} must carry "
                    f"'platform'")
            try:
                platform = platform_from_dict(platform_d)
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError(400, "bad_platform",
                                   f"invalid platform: {exc}") from exc
            algorithm = payload.get("algorithm", "memheft")
            # The options are checked as /schedule checks them, against
            # the lower-case name the session will run (the session
            # itself refuses a heuristic without engine options).
            options = normalize_options(payload.get("options"),
                                        str(algorithm).lower())
            try:
                session = OnlineSession(
                    platform, algorithm=algorithm,
                    policy=payload.get("policy", "immediate"),
                    comm_policy=options["comm_policy"])
            except ValueError as exc:
                raise ServiceError(400, "bad_request", str(exc)) from exc
            entry = self._sessions[name] = _SessionEntry(session)
            return entry

    @staticmethod
    def _check_session_config(name: str, session: OnlineSession,
                              payload: dict) -> None:
        algorithm = payload.get("algorithm")
        stated = {
            "algorithm": (algorithm.lower() if isinstance(algorithm, str)
                          else algorithm, session.algorithm),
            "policy": (payload.get("policy"), session.policy.name),
        }
        options = payload.get("options")
        if options is not None:
            normalize_options(options, session.algorithm)   # 400s as /schedule
            if "comm_policy" in options:
                stated["options.comm_policy"] = (options["comm_policy"],
                                                 session.comm_policy)
        if isinstance(payload.get("platform"), dict):
            stated["platform"] = (payload["platform"],
                                  platform_to_dict(session.platform))
        for key, (got, have) in stated.items():
            if got is not None and got != have:
                raise ServiceError(
                    409, "session_mismatch",
                    f"session {name!r} runs with {key}={have!r}; this "
                    f"request restates {key}={got!r}")

    def _handle_jobs(self, method: str, path: str, query: str,
                     body: bytes) -> tuple[int, dict, bytes]:
        if path == "/jobs" and method == "POST":
            return self._jobs_submit(body)
        self._require(method, "GET", path)
        name = self._query_params(query).get("session", "default")
        entry = self._session_entry(name)
        if path == "/jobs":
            with entry.lock:
                out = {"session": name,
                       "summary": entry.session.summary(),
                       "journal": entry.session.journal()}
            return 200, dict(_JSON_HEADERS), canonical_json(out).encode()
        job_id = unquote(path[len("/jobs/"):])
        with entry.lock:
            job = entry.session.jobs.get(job_id)
            out = None if job is None else dict(job.to_dict(), session=name)
        if out is None:
            raise ServiceError(404, "unknown_job",
                               f"session {name!r} has no job {job_id!r}")
        return 200, dict(_JSON_HEADERS), canonical_json(out).encode()

    def _jobs_submit(self, body: bytes) -> tuple[int, dict, bytes]:
        payload = self._parse_body(body)
        if not isinstance(payload, dict):
            raise ServiceError(400, "bad_request",
                               "/jobs body must be a JSON object")
        name = payload.get("session", "default")
        if not isinstance(name, str) or not name:
            raise ServiceError(400, "bad_request",
                               "'session' must be a non-empty string")
        release = payload.get("release_time", payload.get("release", 0.0))
        if isinstance(release, bool) or not isinstance(release, (int, float)):
            raise ServiceError(400, "bad_request",
                               "'release_time' must be a number")
        job_id = payload.get("job_id")
        if job_id is not None and not isinstance(job_id, str):
            raise ServiceError(400, "bad_request",
                               "'job_id' must be a string")
        graph_d = payload.get("graph")
        if not isinstance(graph_d, dict):
            raise ServiceError(400, "bad_request",
                               "'graph' must be a graph object")
        try:
            graph = graph_from_dict(graph_d)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(400, "bad_graph",
                               f"invalid graph: {exc}") from exc
        entry = self._ensure_session(name, payload)
        with entry.lock:
            session = entry.session
            try:
                job_id = session.submit(graph, release=release,
                                        job_id=job_id)
                job = session.jobs[job_id]
                planned = session.poll(job.release)
                if payload.get("flush"):
                    planned += session.flush()
            except InfeasibleScheduleError as exc:
                raise ServiceError(422, "infeasible", str(exc)) from exc
            except ValueError as exc:
                raise ServiceError(400, "bad_request", str(exc)) from exc
            out = {
                "session": name,
                "job_id": job_id,
                "arrival_index": job.arrival_index,
                "state": job.state,
                "planned": planned,
                "decision_ms": job.decision_ms,
                "n_pending": session.n_pending,
                "makespan": session.makespan,
            }
        return 200, dict(_JSON_HEADERS), canonical_json(out).encode("utf-8")

    def _handle_algorithms(self) -> tuple[int, dict, bytes]:
        algos = [
            {
                "name": name,
                "memory_aware": name not in MEMORY_OBLIVIOUS,
                "baseline": name in MEMORY_OBLIVIOUS,
                "options": (sorted(_DEFAULT_OPTIONS)
                            if name in ENGINE_OPTIONED else []),
            }
            for name in sorted(SCHEDULERS)
        ]
        body = canonical_json({"algorithms": algos}).encode("utf-8")
        return 200, dict(_JSON_HEADERS), body

    def _synthesized_registry(self) -> MetricsRegistry:
        """Build a fresh registry mirroring the app's operational counters
        (which predate :mod:`repro.obs` and stay authoritative) so every
        scrape reflects them without double-accounting."""
        reg = MetricsRegistry()
        reg.gauge(
            "memsched_uptime_seconds",
            _help="Seconds since the service app was constructed.",
        ).set(time.monotonic() - self.started_at)
        reg.gauge("memsched_workers",
                  _help="Configured worker-process count.").set(self.workers)
        with self._count_lock:
            n_requests = self.n_requests
            n_pool_restarts = self.n_pool_restarts
        reg.counter("memsched_requests_total",
                    _help="HTTP requests handled (any endpoint)."
                    ).inc(n_requests)
        reg.counter("memsched_pool_restarts_total",
                    _help="Supervised worker-pool rebuilds."
                    ).inc(n_pool_restarts)
        cache = self.cache.stats()
        reg.counter("memsched_cache_hits_total",
                    _help="Schedule-cache hits.").inc(cache["hits"])
        reg.counter("memsched_cache_misses_total",
                    _help="Schedule-cache misses.").inc(cache["misses"])
        reg.counter("memsched_cache_evictions_total",
                    _help="Schedule-cache LRU evictions."
                    ).inc(cache["evictions"])
        reg.gauge("memsched_cache_size",
                  _help="Schedule-cache entries.").set(cache["size"])
        reg.gauge("memsched_cache_capacity",
                  _help="Schedule-cache capacity.").set(cache["capacity"])
        return reg

    def _handle_metrics(self) -> tuple[int, dict, bytes]:
        """``GET /metrics`` — Prometheus text exposition (format 0.0.4).

        Operational counters are synthesized per scrape from the app's own
        accounting; when :mod:`repro.obs` is active the process-wide
        registry (scheduler/kernel/request instrumentation) is appended.
        """
        text = self._synthesized_registry().render()
        st = obs.active()
        if st is not None:
            text += st.registry.render()
        headers = {"Content-Type":
                   "text/plain; version=0.0.4; charset=utf-8"}
        return 200, headers, text.encode("utf-8")

    def _metrics_summary(self) -> dict:
        with self._count_lock:
            n_requests = self.n_requests
            n_pool_restarts = self.n_pool_restarts
        cache = self.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": n_requests,
            "pool_restarts": n_pool_restarts,
            "cache_hit_rate": (round(cache["hits"] / lookups, 4)
                               if lookups else None),
            "observability": obs.active() is not None,
        }

    def _sessions_summary(self) -> dict:
        """Monitoring view of the online sessions (len() reads under the
        GIL are safe without the per-session locks; the numbers are a
        snapshot, not a transaction)."""
        with self._sessions_lock:
            entries = list(self._sessions.values())
        return {
            "count": len(entries),
            "jobs": sum(len(e.session.jobs) for e in entries),
            "pending": sum(e.session.n_pending for e in entries),
        }

    def _handle_healthz(self) -> tuple[int, dict, bytes]:
        health = {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "digest_schema": DIGEST_SCHEMA_VERSION,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "n_requests": self.n_requests,
            "workers": self.workers,
            "pool_restarts": self.n_pool_restarts,
            "cache": self.cache.stats(),
            "metrics_summary": self._metrics_summary(),
            "sessions": self._sessions_summary(),
        }
        body = canonical_json(health).encode("utf-8")
        return 200, dict(_JSON_HEADERS), body
