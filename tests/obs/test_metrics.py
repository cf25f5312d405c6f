"""Registry semantics: get-or-create identity, kind conflicts,
histogram bucket edges and pre-aggregated merge, Prometheus exposition.
"""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestRegistry:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", endpoint="/healthz")
        b = registry.counter("requests_total", endpoint="/healthz")
        assert a is b

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", a="1", b="2")
        b = registry.counter("x_total", b="2", a="1")
        assert a is b

    def test_distinct_labels_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", endpoint="/a")
        b = registry.counter("x_total", endpoint="/b")
        assert a is not b
        a.inc(3)
        assert b.value == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x", anything="else")

    def test_counter_gauge_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(2)
        registry.histogram("h").observe(0.01)
        snap = registry.snapshot()
        assert snap[("c", (("k", "v"),))] == 2
        hist = snap[("h", ())]
        assert hist["count"] == 1 and hist["sum"] == 0.01
        assert len(hist["buckets"]) == len(DEFAULT_BUCKETS) + 1


class TestHistogram:
    def test_le_bound_is_inclusive(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(1.0)         # exactly on the bound -> le="1" bucket
        assert hist.counts == [1, 0, 0]
        hist.observe(1.0000001)
        assert hist.counts == [1, 1, 0]

    def test_inf_bucket_catches_overflow(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(100.0)
        assert hist.counts == [0, 1]
        assert hist.count == 1
        assert hist.sum == 100.0

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly"):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly"):
            Histogram(bounds=(2.0, 1.0))

    def test_size_buckets_default_available(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes", buckets=SIZE_BUCKETS)
        hist.observe(48)
        i = list(SIZE_BUCKETS).index(48.0)
        assert hist.counts[i] == 1


class TestExposition:
    def test_render_golden(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests served.",
                         endpoint="/healthz").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        assert registry.render() == (
            "# TYPE depth gauge\n"
            "depth 2\n"
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 0\n'
            'lat_bucket{le="1"} 1\n'
            'lat_bucket{le="+Inf"} 1\n'
            "lat_sum 0.5\n"
            "lat_count 1\n"
            "# HELP req_total Requests served.\n"
            "# TYPE req_total counter\n"
            'req_total{endpoint="/healthz"} 3\n'
        )

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", path='say "hi"\nback\\slash').inc()
        text = registry.render()
        assert r'path="say \"hi\"\nback\\slash"' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_standalone_metrics_have_kinds(self):
        assert Counter.kind == "counter"
        assert Gauge.kind == "gauge"
        assert Histogram.kind == "histogram"
