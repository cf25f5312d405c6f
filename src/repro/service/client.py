"""Blocking keep-alive client for the scheduling service.

Built on :mod:`http.client` (stdlib-only, like the server).  One
:class:`ServiceClient` holds one persistent connection, so a submit loop
pays the TCP handshake once; it is *not* thread-safe — give each client
thread its own instance (the concurrency tests and the load generator do).

Graphs and platforms are accepted either as model objects
(:class:`~repro.core.graph.TaskGraph` / :class:`~repro.core.platform.Platform`)
or as already-serialized dicts; responses come back as
:class:`ScheduleResponse`, with the raw body bytes kept for byte-level
identity checks.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union
from urllib.parse import quote

from .. import obs
from ..core.graph import TaskGraph
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..io.json_io import (
    graph_to_dict,
    platform_to_dict,
    schedule_from_dict,
)

GraphLike = Union[TaskGraph, dict]
PlatformLike = Union[Platform, dict]


class ServiceClientError(RuntimeError):
    """An error response from the service (or a transport failure).

    ``status`` is the HTTP status (0 for transport failures), ``err_type``
    the machine-readable slug from the error body.  ``retry_after`` carries
    the server's ``Retry-After`` hint in seconds (load shedding), or
    ``None`` — callers doing their own backoff should floor it.
    """

    def __init__(self, status: int, err_type: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"[{status}/{err_type}] {message}")
        self.status = status
        self.err_type = err_type
        self.message = message
        self.retry_after = retry_after


def _retry_after_of(headers: dict) -> Optional[float]:
    """The Retry-After header in seconds, if present and numeric."""
    for key, value in headers.items():
        if key.lower() == "retry-after":
            try:
                return max(0.0, float(value))
            except (TypeError, ValueError):
                return None
    return None


@dataclass
class ScheduleResponse:
    """One scheduling result, parsed; ``raw`` is the exact body."""

    digest: str
    algorithm: str
    makespan: float
    peaks: list
    schedule: dict
    cached: Optional[bool] = None   # None inside /batch results
    raw: bytes = field(default=b"", repr=False)

    @classmethod
    def from_dict(cls, data: dict, *, cached: Optional[bool] = None,
                  raw: bytes = b"") -> "ScheduleResponse":
        return cls(digest=data["digest"], algorithm=data["algorithm"],
                   makespan=data["makespan"], peaks=data["peaks"],
                   schedule=data["schedule"], cached=cached, raw=raw)

    def to_schedule(self) -> Schedule:
        """Materialise the placement as a :class:`Schedule` object."""
        return schedule_from_dict(self.schedule)


def build_request(graph: GraphLike, platform: PlatformLike,
                  algorithm: str = "memheft",
                  options: Optional[dict] = None) -> dict:
    """The wire form of one scheduling request."""
    req = {
        "graph": graph_to_dict(graph) if isinstance(graph, TaskGraph) else graph,
        "platform": (platform_to_dict(platform)
                     if isinstance(platform, Platform) else platform),
        "algorithm": algorithm,
    }
    if options:
        req["options"] = options
    return req


class ServiceClient:
    """Talks to one ``memsched serve`` endpoint over a kept-alive socket."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8123,
                 timeout: float = 60.0,
                 deadline: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        # Per-request wall-clock budget, advertised to the server as
        # X-Deadline-Ms (it sheds requests it cannot start in time).
        self.deadline = deadline
        self._conn: Optional[http.client.HTTPConnection] = None

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.deadline is not None:
            headers["X-Deadline-Ms"] = str(int(self.deadline * 1000))
        ctx = obs.trace_context()
        if ctx is not None:
            trace_id, span_id = ctx
            headers["X-Trace-Id"] = trace_id
            if span_id is not None:
                headers["X-Span-Id"] = span_id
        return headers

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None
                 ) -> tuple[int, dict, bytes]:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        while True:
            reused = self._conn is not None
            conn = self._connection()
            try:
                conn.request(method, path, body=body,
                             headers=self._headers())
                resp = conn.getresponse()
                data = resp.read()
                return resp.status, dict(resp.getheaders()), data
            except socket.timeout as exc:
                # Never resubmit on a timeout: the server may still be
                # computing the (expensive) answer — a blind retry would
                # double the work without coalescing.
                self.close()
                raise ServiceClientError(
                    0, "timeout",
                    f"no response from {self.host}:{self.port} within "
                    f"{self.timeout:g}s") from exc
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                self.close()
                # Retry exactly once, and only when a *reused* keep-alive
                # socket failed (the server idled it out between requests);
                # a fresh connection failing means the service is down.
                if not reused:
                    raise ServiceClientError(
                        0, "transport",
                        f"cannot reach service at "
                        f"{self.host}:{self.port}: {exc}") from exc

    @staticmethod
    def _parse(status: int, body: bytes,
               headers: Optional[dict] = None) -> dict:
        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServiceClientError(
                status, "transport",
                f"non-JSON response: {body[:200]!r}") from exc
        if status != 200:
            err = data.get("error", {}) if isinstance(data, dict) else {}
            raise ServiceClientError(
                status, err.get("type", "unknown"),
                err.get("message", body.decode(errors="replace")),
                retry_after=_retry_after_of(headers or {}))
        return data

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def schedule(self, graph: GraphLike, platform: PlatformLike,
                 algorithm: str = "memheft",
                 options: Optional[dict] = None) -> ScheduleResponse:
        """Schedule one instance; ``.cached`` reports the X-Cache verdict."""
        status, headers, body = self._request(
            "POST", "/schedule",
            build_request(graph, platform, algorithm, options))
        data = self._parse(status, body, headers)
        cached = {"hit": True, "miss": False}.get(
            {k.lower(): v for k, v in headers.items()}.get("x-cache", ""))
        return ScheduleResponse.from_dict(data, cached=cached, raw=body)

    def batch(self, requests: Sequence[Union[dict, tuple]]
              ) -> list[Union[ScheduleResponse, ServiceClientError]]:
        """Schedule many instances in one round trip.

        ``requests`` holds wire dicts (see :func:`build_request`) or
        ``(graph, platform, algorithm[, options])`` tuples.  Returns one
        entry per request, position-aligned: a :class:`ScheduleResponse`,
        or a :class:`ServiceClientError` (not raised) for instances the
        service rejected.
        """
        wire = [req if isinstance(req, dict) else build_request(*req)
                for req in requests]
        status, headers, body = self._request(
            "POST", "/batch", {"requests": wire})
        data = self._parse(status, body, headers)
        out: list[Union[ScheduleResponse, ServiceClientError]] = []
        for item, cached in zip(data["results"], data["cached"]):
            if "error" in item:
                err = item["error"]
                out.append(ServiceClientError(err.get("status", 400),
                                              err.get("type", "unknown"),
                                              err.get("message", "")))
            else:
                out.append(ScheduleResponse.from_dict(item, cached=cached))
        return out

    def submit_job(self, graph: GraphLike, *, session: str = "default",
                   release: float = 0.0, job_id: Optional[str] = None,
                   platform: Optional[PlatformLike] = None,
                   algorithm: Optional[str] = None,
                   policy: Optional[str] = None,
                   options: Optional[dict] = None,
                   flush: bool = False) -> dict:
        """``POST /jobs`` — submit one graph into a named online session.

        The first submission for a session must carry ``platform`` (and
        may set ``algorithm``/``policy``/``options``); later submissions
        inherit the session's configuration and a conflicting
        restatement raises a 409.  Returns the wire dict: ``job_id``,
        ``arrival_index``, ``state``, the ids ``planned`` by this call,
        ``decision_ms``, ``n_pending`` and the session ``makespan``.
        """
        payload: dict = {"session": session, "release_time": release,
                         "graph": (graph if isinstance(graph, dict)
                                   else graph_to_dict(graph))}
        if job_id is not None:
            payload["job_id"] = job_id
        if platform is not None:
            payload["platform"] = (platform if isinstance(platform, dict)
                                   else platform_to_dict(platform))
        if algorithm is not None:
            payload["algorithm"] = algorithm
        if policy is not None:
            payload["policy"] = policy
        if options is not None:
            payload["options"] = options
        if flush:
            payload["flush"] = True
        status, headers, body = self._request("POST", "/jobs", payload)
        return self._parse(status, body, headers)

    def get_job(self, job_id: str, *, session: str = "default") -> dict:
        """``GET /jobs/{id}`` — one job's state and placements."""
        status, headers, body = self._request(
            "GET", f"/jobs/{quote(job_id)}?session={quote(session)}")
        return self._parse(status, body, headers)

    def session_info(self, session: str = "default") -> dict:
        """``GET /jobs`` — session summary plus its decision journal
        (canonical JSONL under the ``"journal"`` key, byte-comparable
        across replays of the same trace)."""
        status, headers, body = self._request(
            "GET", f"/jobs?session={quote(session)}")
        return self._parse(status, body, headers)

    def algorithms(self) -> list[dict]:
        status, headers, body = self._request("GET", "/algorithms")
        return self._parse(status, body, headers)["algorithms"]

    def healthz(self) -> dict:
        status, headers, body = self._request("GET", "/healthz")
        return self._parse(status, body, headers)

    def metrics(self) -> str:
        """The raw ``GET /metrics`` Prometheus text exposition."""
        status, headers, body = self._request("GET", "/metrics")
        if status != 200:
            self._parse(status, body, headers)   # raises structured error
        return body.decode("utf-8")

    def wait_until_ready(self, timeout: float = 10.0,
                         interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until the service answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceClientError as exc:
                if time.monotonic() >= deadline:
                    raise ServiceClientError(
                        0, "timeout",
                        f"service at {self.host}:{self.port} not ready "
                        f"after {timeout:g}s: {exc.message}") from exc
                time.sleep(interval)
