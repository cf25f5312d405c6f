"""Distributed cell executor: shard experiment grids across service hosts.

:class:`RemoteExecutor` is the multi-host half of the experiment engine.
Where :func:`repro.experiments.engine.map_cells` with ``jobs=N`` fans a
sweep's cells over local worker processes, the executor fans the same
cells over N running ``memsched serve`` hosts through their ``POST
/cells`` endpoint (:mod:`repro.service.app`), and aggregates the streamed
results back into cell order.  The cell functions, the payload and the
per-cell results are identical in all three modes — serial ≡ ``jobs=N`` ≡
distributed, by construction (pinned by ``tests/experiments/test_remote.py``
and the CI distributed smoke).

Scheduling model:

* **Weighted partitioning.**  Every host's ``GET /healthz`` advertises its
  process-pool size (``workers``); the coordinator splits the cell list
  into contiguous chunks of ``n // (4 * total workers)`` cells (at least
  one), about four per worker, and each dispatch to a host takes ``workers``
  chunks at a time, so a 4-worker box pulls four times the cells of a
  1-worker box — and, because hosts pull from a shared queue as they
  finish, slow hosts naturally end up with less.
* **Failure = reassignment.**  A host that drops the connection, times
  out, answers a 5xx (including the service's ``503 saturated``
  back-pressure), or streams back malformed rows is marked dead *for the
  current call* and its unfinished chunks go back on the queue for the
  survivors; the retried cells recompute to the same values (cell
  functions are pure), so no result is lost and none changes.  Only when
  *every* host is dead does the sweep fail (:class:`RemoteExecutorError`,
  carrying each host's last error).  The next ``map_cells`` call
  re-probes dead hosts (in parallel) and resurrects any that answer, so
  a restarted or briefly-saturated host rejoins the campaign.
* **Deterministic errors stay errors.**  A cell function that raises on
  one host would raise on every host; such per-cell errors are *not*
  retried — they surface as :class:`CellExecutionError`, matching
  ``map_cells``'s exception-propagation contract.

Hosts only execute *registered* top-level cell functions
(:func:`repro.experiments.engine.remote_worker`): the wire carries worker
names and tagged JSON values (:func:`repro.io.json_io.to_cell_wire`),
never code.

Usage::

    with remote_hosts(["10.0.0.1:8123", "10.0.0.2:8123"]):
        result = normalized_sweep(graphs, platform)      # sharded

    executor = RemoteExecutor(["h1:8123", "h2:8123"])
    rows = map_cells(_normalized_cell, payload, cells, hosts=executor)
    print(executor.stats())
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .. import faults, obs
from ..obs import log
from ..io.json_io import from_cell_wire, to_cell_wire
from .engine import set_default_hosts

#: Unfilled-slot marker (``None`` is a legitimate cell result).
_MISSING = object()


class RemoteExecutorError(RuntimeError):
    """The distributed run cannot proceed (no usable hosts / cells left
    unassigned after every host died)."""


class CellExecutionError(RuntimeError):
    """A cell function raised on a host — deterministic, so not retried.

    ``index`` is the failing cell's position, ``error`` the structured
    ``{"type", "message"}`` body the host reported.
    """

    def __init__(self, index: int, error: dict) -> None:
        super().__init__(f"cell {index} failed on the host: "
                         f"{error.get('message', error)}")
        self.index = index
        self.error = dict(error)


def parse_host(spec: Union[str, tuple]) -> tuple[str, int]:
    """``"host:port"`` / ``(host, port)`` → ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = str(spec).strip().rpartition(":")
    if not sep or not host:
        raise ValueError(f"host spec {spec!r} is not 'host:port'")
    return host, int(port)


@dataclass
class RemoteHost:
    """One service host and its live dispatch accounting.

    Circuit-breaker state: ``consecutive_failures`` counts transient
    failures since the last successful work request; while it is nonzero
    the host is *open* until ``open_until`` (monotonic time), after which
    it is *half-open* — the next dispatch probes ``/healthz`` before
    taking real work.  ``alive=False`` (the budget exhausted, or the
    initial probe failed) removes the host for the rest of the call; the
    next call's re-probe may resurrect it.
    """

    host: str
    port: int
    #: Advertised /healthz ``workers`` (dispatch weight); 0 until probed.
    weight: int = 0
    alive: bool = True
    error: Optional[str] = None
    n_requests: int = 0
    n_cells: int = 0
    probed: bool = field(default=False, repr=False)
    #: Transient failures since the last successful work request.
    consecutive_failures: int = 0
    #: Monotonic time before which the breaker keeps the host open.
    open_until: float = field(default=0.0, repr=False)
    #: Total retries this host consumed (diagnostics).
    n_retries: int = 0
    #: Coordinator-side network-attempt counter (fault blackout windows
    #: are keyed on it).
    n_attempts: int = field(default=0, repr=False)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def reset_breaker(self) -> None:
        self.consecutive_failures = 0
        self.open_until = 0.0


class RemoteExecutor:
    """Coordinates one or more sweeps over a fixed set of service hosts.

    Host state (weights, liveness, per-host counters) persists across
    :meth:`map_cells` calls, so one executor can drive a whole experiment
    campaign and :meth:`stats` reports the campaign totals.
    """

    def __init__(self, hosts: Sequence[Union[str, tuple]], *,
                 timeout: float = 600.0, ready_timeout: float = 10.0,
                 retry_budget: int = 2, backoff_base: float = 0.1,
                 backoff_cap: float = 2.0) -> None:
        if not hosts:
            raise ValueError("need at least one host")
        self.hosts = [RemoteHost(*parse_host(h)) for h in hosts]
        if len({h.address for h in self.hosts}) != len(self.hosts):
            raise ValueError("duplicate host addresses")
        #: Per-request deadline: a single /cells request (including its
        #: streamed rows) may not outlive this many seconds.
        self.timeout = timeout
        self.ready_timeout = ready_timeout
        #: Transient failures tolerated per host before it is dropped for
        #: the call (deterministic CellExecutionError never retries).
        self.retry_budget = max(0, int(retry_budget))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.n_reassigned_chunks = 0
        self.n_rounds = 0
        self.n_retries = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(self) -> list[RemoteHost]:
        """Probe every new or dead host's ``/healthz``; weight = its
        advertised worker-pool size.

        Probes run in parallel, so one ``ready_timeout`` bounds the whole
        pass even with several hosts down.  A dead host that answers
        again is **resurrected** (alive, error cleared, weight
        refreshed): a restart or a transient ``503 saturated`` costs the
        host at most the rest of one sweep, never the campaign.  Healthy
        already-probed hosts are not re-probed — back-to-back sweeps pay
        nothing here.
        """
        from ..service.client import ServiceClient, ServiceClientError

        pending = [h for h in self.hosts if not h.probed or not h.alive]

        def probe_one(h: RemoteHost) -> None:
            client = ServiceClient(h.host, h.port, timeout=self.timeout)
            try:
                health = client.wait_until_ready(self.ready_timeout)
                h.weight = max(1, int(health.get("workers", 1)))
                h.probed = True
                h.alive = True
                h.error = None
                h.reset_breaker()
            except ServiceClientError as exc:
                h.alive = False
                h.error = f"probe failed: {exc}"
                log.warning("remote.probe_failed", host=h.address,
                            error=str(exc))
            finally:
                client.close()

        if len(pending) == 1:
            probe_one(pending[0])
        elif pending:
            threads = [threading.Thread(target=probe_one, args=(h,),
                                        name=f"probe-{h.address}",
                                        daemon=True) for h in pending]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return [h for h in self.hosts if h.alive]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def map_cells(self, worker: Union[Callable, str], payload: object,
                  cells: Sequence[object], *,
                  on_result_wire: Optional[Callable] = None) -> list:
        """Run ``worker`` over ``cells`` across the hosts; results in cell
        order, exactly as the serial engine would produce them.

        ``on_result_wire(index, wire)`` — when given — is invoked once per
        cell as its (wire-encoded) result first lands, in completion
        order; the checkpoint layer journals from exactly this hook.  A
        retried cell (host died after the row was scattered) does not
        re-invoke it."""
        name = worker if isinstance(worker, str) else \
            getattr(worker, "_remote_name", None)
        if name is None:
            raise ValueError(
                f"{getattr(worker, '__name__', worker)!r} is not a "
                f"registered remote cell worker (decorate it with "
                f"@remote_worker(name) to shard it over hosts)")
        cells = list(cells)
        if not cells:
            return []
        alive = self.probe()
        if not alive:
            raise RemoteExecutorError(
                "no usable hosts: "
                + "; ".join(f"{h.address}: {h.error}" for h in self.hosts))

        payload_wire = to_cell_wire(payload)
        wires = [to_cell_wire(c) for c in cells]
        n = len(wires)
        total_weight = sum(h.weight for h in alive)
        base = max(1, n // (4 * total_weight))
        #: Work queue of (start_index, [cell wires]) chunks.
        chunks: deque = deque((i, wires[i:i + base])
                              for i in range(0, n, base))
        results: list = [_MISSING] * n
        #: First fatal (non-retryable) error: CellExecutionError or a 4xx.
        fatal: list[Exception] = []

        while True:
            with self._lock:
                pending = bool(chunks)
            usable = [h for h in self.hosts if h.alive]
            if not pending or not usable or fatal:
                break
            now = time.monotonic()
            ready = [h for h in usable if h.open_until <= now]
            if not ready:
                # Every usable host is cooling down behind its breaker;
                # wait for the earliest to go half-open instead of
                # declaring the sweep dead.
                wait = min(h.open_until for h in usable) - now
                time.sleep(max(0.001, min(wait, self.backoff_cap)))
                continue
            self.n_rounds += 1
            # Span stacks are thread-local, so the host threads get the
            # coordinator's current span as an explicit parent.
            st = obs.active()
            obs_parent = (st.tracer.current()
                          if st is not None and st.tracer is not None
                          else None)
            threads = [
                threading.Thread(
                    target=self._drain_host,
                    args=(h, name, payload_wire, chunks, results, fatal,
                          on_result_wire, obs_parent),
                    name=f"remote-{h.address}", daemon=True)
                for h in ready
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        if fatal:
            raise fatal[0]
        if chunks or any(r is _MISSING for r in results):
            undone = sum(len(c[1]) for c in chunks)
            raise RemoteExecutorError(
                f"all hosts died with {undone} cells still queued: "
                + "; ".join(f"{h.address}: {h.error}"
                            for h in self.hosts if not h.alive))
        return [from_cell_wire(r) for r in results]

    def _check_blackout(self, host: RemoteHost) -> None:
        """Coordinator-side fault hook: when an installed fault plan
        declares a blackout window covering this host's next network
        attempt, simulate the outage instead of touching the wire."""
        from ..service.client import ServiceClientError

        injector = faults.active()
        with self._lock:
            attempt = host.n_attempts
            host.n_attempts += 1
        if injector is not None and injector.plan.blackout:
            index = next(i for i, h in enumerate(self.hosts) if h is host)
            if injector.in_blackout(index, attempt):
                injector.fire("remote.blackout", 1.0)   # log the event
                raise ServiceClientError(
                    0, "blackout",
                    f"injected blackout of {host.address} "
                    f"(attempt {attempt})")

    def _drain_host(self, host: RemoteHost, worker_name: str,
                    payload_wire: object, chunks: deque, results: list,
                    fatal: list, on_result_wire: Optional[Callable] = None,
                    obs_parent: Optional[str] = None) -> None:
        """One host's dispatch loop: pull up to ``weight`` chunks per
        request, stream them through ``/cells``, scatter the rows.  A
        host-level failure requeues the chunks and trips the host's
        breaker — exponential backoff while the retry budget lasts, dead
        for the call after.  A half-open host (breaker cooled down after
        failures) must pass a ``/healthz`` probe before taking real work;
        only a successful work request closes the breaker, so a host
        whose health endpoint answers but whose work requests keep
        failing still exhausts its budget."""
        from ..service.client import ServiceClient, ServiceClientError

        client = ServiceClient(host.host, host.port, timeout=self.timeout,
                               deadline=self.timeout)
        try:
            if host.consecutive_failures > 0:
                try:
                    self._check_blackout(host)
                    client.healthz()
                except ServiceClientError as exc:
                    self._host_failed(host, [], chunks,
                                      f"half-open probe failed: {exc}")
                    return
            while True:
                with self._lock:
                    if fatal:
                        return
                    take = [chunks.popleft()
                            for _ in range(min(host.weight, len(chunks)))]
                if not take:
                    return
                merged = [w for _, chunk in take for w in chunk]
                offsets = [start + k for start, chunk in take
                           for k in range(len(chunk))]
                st = obs.active()
                try:
                    self._check_blackout(host)
                    t0 = time.perf_counter() if st is not None else 0.0
                    rows = client.run_cells(worker_name, payload_wire,
                                            merged)
                    request_span = None
                    if st is not None:
                        request_span = self._record_request(
                            st, host, len(merged),
                            time.perf_counter() - t0, obs_parent)
                    filled = self._scatter(rows, offsets, results,
                                           on_result_wire,
                                           span_parent=request_span)
                except ServiceClientError as exc:
                    if (exc.status and 400 <= exc.status < 500
                            and exc.err_type != "not_found"):
                        # The request itself is wrong (unknown worker,
                        # bad wire) — every host would refuse it.  A
                        # route-level 404 ("not_found") is different:
                        # that's a version-skewed host without /cells,
                        # which must die like any other bad host instead
                        # of aborting the sweep the healthy hosts could
                        # finish.
                        with self._lock:
                            fatal.append(exc)
                            for item in reversed(take):
                                chunks.appendleft(item)
                        return
                    # A truncated or malformed stream after a committed
                    # 200 means the host process died mid-computation (a
                    # crash, not congestion); a route-404 is a
                    # version-skewed host.  Neither can succeed on retry
                    # within this call.  Everything else — connection
                    # failures, timeouts, 503 shedding, deadline misses —
                    # is transient and spends the retry budget.
                    self._host_failed(
                        host, take, chunks, str(exc),
                        retry_after=exc.retry_after,
                        permanent=exc.err_type in ("truncated", "malformed",
                                                   "not_found"))
                    return
                except CellExecutionError as exc:
                    with self._lock:
                        fatal.append(exc)
                    return
                if not filled:
                    self._host_failed(
                        host, take, chunks,
                        "malformed /cells rows (bad indices or shape)",
                        permanent=True)
                    return
                with self._lock:
                    host.n_requests += 1
                    host.n_cells += len(merged)
                    host.error = None
                    host.reset_breaker()   # a full success closes the breaker
        finally:
            client.close()

    def _record_request(self, st, host: RemoteHost, n_cells: int,
                        duration: float,
                        obs_parent: Optional[str]) -> Optional[str]:
        """Account one successful ``/cells`` round trip; returns the
        request's span id (the parent for the re-emitted cell spans), or
        ``None`` when no tracer is attached.  The span key is the host's
        attempt counter, so retried requests get distinct, deterministic
        ids."""
        st.registry.histogram("memsched_remote_request_seconds",
                              host=host.address).observe(duration)
        st.registry.counter("memsched_remote_cells_total",
                            host=host.address).inc(n_cells)
        tracer = st.tracer
        if tracer is None:
            return None
        span_id = tracer.child_id(obs_parent, "remote_request",
                                  key=(host.address, host.n_attempts))
        tracer.emit("remote_request", span_id=span_id,
                    parent_id=obs_parent, dur=duration,
                    attrs={"host": host.address, "n_cells": n_cells})
        return span_id

    def _scatter(self, rows: list, offsets: list, results: list,
                 on_result_wire: Optional[Callable] = None,
                 span_parent: Optional[str] = None) -> bool:
        """Validate one response's rows against the dispatched offsets and
        fill ``results`` (wire values; decoded once at the end).  Returns
        ``False`` on structural problems — the caller treats the host as
        malfunctioning.  Raises :class:`CellExecutionError` for structured
        per-cell errors (after filling the sound rows, so a later retry
        pass is not needed for them).

        With a tracer attached (``span_parent``) every row is re-emitted
        as a coordinator-side ``cell`` span keyed by the cell's *global*
        grid index, carrying the host-measured duration when the row has
        an ``obs`` annotation — the one place a sweep cell's identity,
        host, and timing meet, making every cell reconstructable from the
        coordinator's trace alone."""
        if len(rows) != len(offsets):
            return False
        staged = {}
        first_error: Optional[CellExecutionError] = None
        for row in rows:
            i = row.get("i")
            if not isinstance(i, int) or not 0 <= i < len(offsets) \
                    or i in staged:
                return False
            if "error" in row:
                if first_error is None:
                    first_error = CellExecutionError(offsets[i],
                                                     row["error"])
                staged[i] = _MISSING
            elif "r" in row:
                staged[i] = row["r"]
            else:
                return False
        if span_parent is not None:
            st = obs.active()
            tracer = st.tracer if st is not None else None
            if tracer is not None:
                for row in rows:
                    index = offsets[row["i"]]
                    attrs = {"i": index}
                    annotation = row.get("obs")
                    dur = None
                    if isinstance(annotation, dict):
                        dur = annotation.get("dur")
                        if "pid" in annotation:
                            attrs["pid"] = annotation["pid"]
                    if "error" in row:
                        attrs["error"] = row["error"].get("type", "error")
                    tracer.emit(
                        "cell",
                        span_id=tracer.child_id(span_parent, "cell",
                                                key=index),
                        parent_id=span_parent, dur=dur, attrs=attrs)
        fresh: list = []
        with self._lock:
            for i, value in staged.items():
                if value is not _MISSING:
                    if results[offsets[i]] is _MISSING:
                        fresh.append((offsets[i], value))
                    results[offsets[i]] = value
        if on_result_wire is not None:
            for index, value in fresh:
                on_result_wire(index, value)
        if first_error is not None:
            raise first_error
        return True

    def _backoff(self, host: RemoteHost,
                 retry_after: Optional[float]) -> float:
        """Breaker cool-down before the host's next (half-open) attempt:
        exponential in its consecutive failures, deterministically
        jittered by host identity (sha256, not ``random`` — same plan,
        same schedule), floored by any server-sent ``Retry-After``."""
        k = max(1, host.consecutive_failures)
        base = min(self.backoff_cap, self.backoff_base * (2 ** (k - 1)))
        seed = hashlib.sha256(
            f"{host.address}:{k}".encode()).digest()
        jitter = 1.0 + 0.25 * (int.from_bytes(seed[:4], "big") / 2.0 ** 32)
        delay = base * jitter
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return min(delay, self.backoff_cap * 1.25)

    def _host_failed(self, host: RemoteHost, take: list, chunks: deque,
                     message: str,
                     retry_after: Optional[float] = None,
                     permanent: bool = False) -> None:
        """Requeue the host's chunks and trip its breaker: open with
        backoff while the retry budget lasts, dead for the call after.
        ``permanent`` failures (the host died mid-stream, speaks a
        malformed protocol, or lacks /cells entirely) skip the budget —
        retrying cannot help within this call; the next campaign's probe
        may still resurrect the host."""
        with self._lock:
            for item in reversed(take):
                chunks.appendleft(item)
            host.error = message
            self.n_reassigned_chunks += len(take)
            host.consecutive_failures += 1
            retried = not (permanent
                           or host.consecutive_failures > self.retry_budget)
            if not retried:
                host.alive = False
                host.open_until = 0.0
            else:
                host.n_retries += 1
                self.n_retries += 1
                host.open_until = time.monotonic() \
                    + self._backoff(host, retry_after)
        st = obs.active()
        if st is not None and retried:
            st.registry.counter("memsched_remote_retries_total",
                                host=host.address).inc()
        log.warning("remote.host_failed", host=host.address,
                    error=message, permanent=permanent,
                    alive=host.alive, requeued_chunks=len(take),
                    failures=host.consecutive_failures)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Dispatch accounting: per-host weights/cells/requests, dead
        hosts with their last error, chunks reassigned after failures."""
        with self._lock:
            return {
                "hosts": {
                    h.address: {
                        "weight": h.weight,
                        "alive": h.alive,
                        "requests": h.n_requests,
                        "cells": h.n_cells,
                        "error": h.error,
                        "retries": h.n_retries,
                    }
                    for h in self.hosts
                },
                "reassigned_chunks": self.n_reassigned_chunks,
                "rounds": self.n_rounds,
                "retries": self.n_retries,
            }


def format_host_stats(stats: dict) -> list[str]:
    """Human-readable lines for :meth:`RemoteExecutor.stats` — the one
    rendering shared by ``memsched experiment --hosts`` and
    ``scripts/run_all_experiments.py``."""
    lines = []
    for addr, info in stats["hosts"].items():
        state = "ok" if info["alive"] else f"DEAD ({info['error']})"
        lines.append(f"host {addr}: weight={info['weight']} "
                     f"cells={info['cells']} requests={info['requests']} "
                     f"{state}")
    if stats["reassigned_chunks"]:
        lines.append(f"reassigned {stats['reassigned_chunks']} chunks "
                     f"after host failures")
    return lines


def run_remote(worker: Union[Callable, str], payload: object,
               cells: Sequence[object],
               hosts: Union[RemoteExecutor, Sequence], *,
               on_result_wire: Optional[Callable] = None) -> list:
    """One distributed ``map_cells`` call (the hook
    :func:`repro.experiments.engine.map_cells` delegates to when given
    ``hosts``).  ``hosts`` is an address list or a prepared
    :class:`RemoteExecutor` (pass the executor to keep state/stats across
    calls)."""
    executor = hosts if isinstance(hosts, RemoteExecutor) \
        else RemoteExecutor(hosts)
    return executor.map_cells(worker, payload, cells,
                              on_result_wire=on_result_wire)


@contextmanager
def remote_hosts(hosts: Union[RemoteExecutor, Sequence]):
    """Make every :func:`map_cells` call inside the block distributed.

    This is how whole experiment drivers go multi-host without changing
    their signatures: ``memsched experiment fig12 --hosts H1,H2`` simply
    wraps the driver call.  Yields the shared :class:`RemoteExecutor` so
    callers can inspect :meth:`~RemoteExecutor.stats` afterwards.
    """
    executor = hosts if isinstance(hosts, RemoteExecutor) \
        else RemoteExecutor(hosts)
    previous = set_default_hosts(executor)
    try:
        yield executor
    finally:
        set_default_hosts(previous)
