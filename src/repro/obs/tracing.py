"""Structured span tracing with sha256-deterministic identifiers.

A :class:`Tracer` writes one JSONL event per finished span.  Timings are
**monotonic** (:func:`time.perf_counter` offsets from the tracer's
epoch) and wall-clock times never appear in span rows, so trace files
stay out of every digest and golden comparison: with tracing on, the
schedules and CSVs a run produces are byte-identical to an untraced run.

Span identifiers follow the repo's sha256 seed machinery (compare
:func:`repro.experiments.engine.cell_seed`): an id is the truncated
sha256 of ``(trace_id, parent_id, name, key)`` where ``key`` is either a
natural key the caller supplies (a cell index) or a per-``(parent,
name)`` sibling sequence number.  Ids are therefore a
pure function of trace *structure*, never of time or object identity —
the same run traces to the same ids.

Span nesting is tracked per thread; cross-thread and cross-process
parents are wired explicitly (``parent=`` on :meth:`Tracer.span`, or
the ``X-Trace-Id``/``X-Span-Id`` HTTP headers the service client
sends and the service records on its ``request`` span).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Optional


def det_id(*parts) -> str:
    """16-hex-char deterministic id: truncated sha256 over the repr of
    ``parts`` — the same derivation family as ``engine.cell_seed``."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def trace_id_for(*parts) -> str:
    """A trace id for one logical run, derived from its identity parts
    (subcommand, inputs, ...) — never from the clock."""
    return det_id("trace", *parts)


class Span:
    """One in-flight span; a context manager that emits its JSONL row on
    exit (errors are recorded as an ``error`` attribute, then re-raised).
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "_t0", "_offset")

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[dict],
                 span_id: str, parent_id: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._t0 = time.perf_counter()
        self._offset = self._t0 - self.tracer._epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        self.tracer._pop(self)
        attrs = self.attrs
        if exc_type is not None:
            attrs = dict(attrs or ())
            attrs["error"] = exc_type.__name__
        self.tracer.emit(self.name, span_id=self.span_id,
                         parent_id=self.parent_id, t0=self._offset,
                         dur=duration, attrs=attrs)
        return False


class Tracer:
    """One open trace file; thread-safe, append-one-line-per-span."""

    #: Rows buffered in memory before a batched serialise-and-write —
    #: bounds what a killed process can lose while keeping ``emit``
    #: off the JSON encoder on the hot path.
    WRITE_BATCH = 512

    def __init__(self, path, *, trace_id: Optional[str] = None) -> None:
        self.path = str(path)
        self.trace_id = trace_id or trace_id_for(self.path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq: dict = {}
        self._pending: list = []
        self._epoch = time.perf_counter()
        self.n_events = 0

    # ------------------------------------------------------------------
    # span stack (per thread)
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> Optional[str]:
        """The innermost open span id on *this* thread, or ``None``."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def context(self) -> tuple:
        """``(trace_id, current_span_id_or_None)`` — what the service
        client serialises into ``X-Trace-Id``/``X-Span-Id``."""
        return self.trace_id, self.current()

    # ------------------------------------------------------------------
    # deterministic ids
    # ------------------------------------------------------------------
    def child_id(self, parent_id: Optional[str], name: str,
                 key=None) -> str:
        """The id of a child span of ``parent_id`` named ``name``.  With
        no natural ``key`` a per-``(parent, name)`` sibling counter is
        used — deterministic as long as same-named siblings of one
        parent are opened from a single thread."""
        if key is None:
            with self._lock:
                seq = self._seq.get((parent_id, name), 0)
                self._seq[(parent_id, name)] = seq + 1
            key = seq
        return det_id(self.trace_id, parent_id, name, key)

    # ------------------------------------------------------------------
    # spans and raw events
    # ------------------------------------------------------------------
    def span(self, name: str, attrs: Optional[dict] = None, *,
             parent: Optional[str] = None, key=None) -> Span:
        """Open a span.  ``parent`` defaults to this thread's innermost
        open span; pass it explicitly when crossing threads or processes."""
        parent_id = parent if parent is not None else self.current()
        return Span(self, name, attrs, self.child_id(parent_id, name, key),
                    parent_id)

    def emit(self, name: str, *, span_id: str,
             parent_id: Optional[str] = None, t0: Optional[float] = None,
             dur: Optional[float] = None,
             attrs: Optional[dict] = None) -> None:
        """Record one span row directly (aggregate phase spans, spans
        timed outside a ``with`` block).  ``attrs`` is kept by
        reference until the batched write — pass a dict you won't
        mutate afterwards.  Serialisation is deferred on purpose: a
        per-span JSON encode (let alone a flush) dominates the cost of
        tracing tight scheduler phases, so rows buffer in memory and
        hit the encoder :data:`WRITE_BATCH` at a time; ``report.
        load_trace`` already tolerates the torn tail a killed process
        leaves behind."""
        row: dict = {"trace": self.trace_id, "span": span_id, "name": name}
        if parent_id is not None:
            row["parent"] = parent_id
        if t0 is not None:
            row["t0"] = round(t0, 6)
        if dur is not None:
            row["dur"] = round(dur, 6)
        if attrs:
            row["attrs"] = attrs
        with self._lock:
            if self._fh is not None:
                self._pending.append(row)
                self.n_events += 1
                if len(self._pending) >= self.WRITE_BATCH:
                    self._write_pending()

    def _write_pending(self) -> None:
        """Serialise and write the buffered rows (caller holds the lock)."""
        if self._pending:
            dumps = json.dumps
            self._fh.write("".join(dumps(row, sort_keys=True) + "\n"
                                   for row in self._pending))
            self._pending.clear()

    def flush(self) -> None:
        """Drain the row buffer to the OS — for long-lived tracers
        (servers) that want the file current between runs."""
        with self._lock:
            if self._fh is not None:
                self._write_pending()
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._write_pending()
                self._fh.close()
                self._fh = None
