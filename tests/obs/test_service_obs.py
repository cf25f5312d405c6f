"""Live service observability: a client's trace context reaches the
service's ``request`` span, ``/metrics`` accounts every request, and
``/healthz`` advertises the observability state."""

from repro import obs
from repro.obs.report import load_trace
from repro.service import ServiceApp, ServiceClient, ThreadedServer
from repro.service.app import PROTOCOL_VERSION


class TestTracePropagation:
    def test_request_span_records_the_callers_context(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.observing(path, trace_ident=("test", "propagation")) \
                as state:
            with ThreadedServer(ServiceApp(workers=1)) as srv:
                client = ServiceClient(srv.host, srv.port)
                try:
                    with obs.span("caller"):
                        caller = obs.trace_context()
                        client.healthz()
                finally:
                    client.close()
            trace_id = state.tracer.trace_id
        requests = [row for row in load_trace(path)
                    if row["name"] == "request"]
        assert len(requests) == 1
        attrs = requests[0]["attrs"]
        assert attrs["endpoint"] == "/healthz"
        assert caller == (trace_id, caller[1]) and caller[1] is not None
        assert (attrs["caller_trace"], attrs["caller_span"]) == caller


def _parse_samples(text):
    """Minimal Prometheus text-format parse: {sample line -> value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        bare = name_part.split("{", 1)[0]
        assert bare and bare.replace("_", "").isalnum(), line
        samples[name_part] = float(value)
    return samples


class TestScrape:
    def test_metrics_accounts_every_request(self):
        n_requests = 5
        with obs.observing():
            with ThreadedServer(ServiceApp(workers=1)) as srv:
                client = ServiceClient(srv.host, srv.port)
                try:
                    for _ in range(n_requests):
                        client.healthz()
                    text = client.metrics()
                finally:
                    client.close()
        samples = _parse_samples(text)
        assert samples[
            'memsched_http_requests_total'
            '{endpoint="/healthz",status="200"}'] == n_requests
        # the synthesized operational counter sees them too (+1 for the
        # /metrics scrape itself)
        assert samples["memsched_requests_total"] == n_requests + 1

    def test_scrape_works_without_observability(self):
        # /metrics always answers: synthesized operational counters even
        # with the process-wide registry off
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port)
            try:
                client.healthz()
                text = client.metrics()
            finally:
                client.close()
        samples = _parse_samples(text)
        assert samples["memsched_requests_total"] >= 1
        # the process-wide per-endpoint series needs obs; absent here
        assert not any(key.startswith("memsched_http_requests_total")
                       for key in samples)


class TestHealthz:
    def test_reports_observability_state(self):
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port)
            try:
                off = client.healthz()
                with obs.observing():
                    on = client.healthz()
            finally:
                client.close()
        assert off["protocol"] == PROTOCOL_VERSION
        assert off["metrics_summary"]["observability"] is False
        assert on["metrics_summary"]["observability"] is True

    def test_metrics_summary_counts_requests(self):
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port)
            try:
                client.healthz()
                health = client.healthz()
            finally:
                client.close()
        summary = health["metrics_summary"]
        assert summary["requests"] >= 2
        assert "cells_executed" not in summary
        assert summary["uptime_s"] >= 0
