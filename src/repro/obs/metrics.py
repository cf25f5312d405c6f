"""Process-wide metrics primitives: counters, gauges, histograms.

Zero dependencies and lock-cheap by construction: metric *lookup* is one
dict read on the registry's index (no lock on the hot path — instrument
sites are encouraged to hold on to the returned metric object anyway),
and each update takes only the metric's own small lock, so concurrent
writers to different series never contend.  Families carry the
Prometheus TYPE/HELP metadata and render through :meth:`
MetricsRegistry.render` as hand-rolled `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
no client library involved.

Histograms use **fixed** bucket bounds chosen at creation (default:
latency-shaped seconds); ``le`` is the Prometheus *inclusive* upper
bound, so ``observe(0.005)`` lands in the ``le="0.005"`` bucket.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Optional

#: Latency-shaped default bounds (seconds), from sub-millisecond cache
#: hits up to multi-second sweep cells.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Size-shaped bounds (counts): tasks per schedule.
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0, 128.0,
                256.0, 512.0, 1024.0)


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats render as integers."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels_text(labels: tuple, extra: tuple = ()) -> str:
    items = tuple(labels) + tuple(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value (floats allowed: accumulated
    seconds are counters too)."""

    __slots__ = ("_lock", "value")
    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def render_into(self, out: list, name: str, labels: tuple) -> None:
        out.append(f"{name}{_labels_text(labels)} {_fmt(self.value)}")


class Gauge:
    """A value that goes both ways (queue depths, in-flight requests)."""

    __slots__ = ("_lock", "value")
    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def render_into(self, out: list, name: str, labels: tuple) -> None:
        out.append(f"{name}{_labels_text(labels)} {_fmt(self.value)}")


class Histogram:
    """Fixed-bucket histogram; ``le`` bounds are inclusive (Prometheus
    semantics), the last implicit bucket is ``+Inf``."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram bounds must be strictly "
                             f"increasing: {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)   # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[i] += 1
            self.sum += value
            self.count += 1

    def render_into(self, out: list, name: str, labels: tuple) -> None:
        with self._lock:
            counts = list(self.counts)
            total, acc = self.sum, 0
        for bound, n in zip(self.bounds, counts):
            acc += n
            le = (("le", _fmt(bound)),)
            out.append(f"{name}_bucket{_labels_text(labels, le)} {acc}")
        acc += counts[-1]
        out.append(f'{name}_bucket{_labels_text(labels, (("le", "+Inf"),))}'
                   f" {acc}")
        out.append(f"{name}_sum{_labels_text(labels)} {_fmt(total)}")
        out.append(f"{name}_count{_labels_text(labels)} {acc}")


class _Family:
    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: Optional[str],
                 buckets: Optional[tuple]) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: dict = {}


class MetricsRegistry:
    """One process-wide bag of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call fixes the family's kind (and, for histograms, its bucket
    bounds); later calls with the same name and labels return the same
    object, so hot sites can cache it once and update lock-free of the
    registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict = {}
        self._index: dict = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------
    def _metric(self, kind: str, name: str, help_text: Optional[str],
                buckets: Optional[tuple], labels: dict):
        key = (name, tuple(sorted(labels.items())))
        metric = self._index.get(key)       # lock-free fast path
        if metric is not None:
            return metric
        with self._lock:
            metric = self._index.get(key)
            if metric is not None:
                return metric
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}")
            if kind == "histogram":
                metric = Histogram(family.buckets or DEFAULT_BUCKETS)
            elif kind == "gauge":
                metric = Gauge()
            else:
                metric = Counter()
            family.children[key[1]] = metric
            self._index[key] = metric
            return metric

    def counter(self, name: str, _help: Optional[str] = None,
                **labels) -> Counter:
        return self._metric("counter", name, _help, None, labels)

    def gauge(self, name: str, _help: Optional[str] = None,
              **labels) -> Gauge:
        return self._metric("gauge", name, _help, None, labels)

    def histogram(self, name: str, _help: Optional[str] = None,
                  buckets: Optional[tuple] = None, **labels) -> Histogram:
        return self._metric("histogram", name, _help,
                            tuple(buckets) if buckets else None, labels)

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        out: list = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                out.append(f"# HELP {name} {family.help}")
            out.append(f"# TYPE {name} {family.kind}")
            for labels in sorted(family.children):
                family.children[labels].render_into(out, name, labels)
        return "\n".join(out) + ("\n" if out else "")

    def snapshot(self) -> dict:
        """Plain-data view for tests and ``/healthz`` summaries:
        ``{(name, labels): value-or-histogram-dict}``."""
        out: dict = {}
        with self._lock:
            index = dict(self._index)
        for (name, labels), metric in index.items():
            if isinstance(metric, Histogram):
                out[(name, labels)] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": list(metric.counts),
                }
            else:
                out[(name, labels)] = metric.value
        return out
