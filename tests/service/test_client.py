"""ServiceClient unit tests: request building, header composition and
error-body parsing, without a server."""

import json

import pytest

from repro import obs
from repro.core.platform import Platform
from repro.dags.toy import dex
from repro.io.json_io import graph_to_dict, platform_to_dict
from repro.service import ServiceClient, ServiceClientError
from repro.service.client import (
    ScheduleResponse,
    _retry_after_of,
    build_request,
)

PLATFORM = Platform(n_blue=1, n_red=1, mem_blue=5, mem_red=5)


class TestRetryAfter:
    @pytest.mark.parametrize("headers, seconds", [
        ({}, None),
        ({"Retry-After": "1"}, 1.0),
        ({"retry-after": "2.5"}, 2.5),
        ({"RETRY-AFTER": "0"}, 0.0),
        ({"Retry-After": "-3"}, 0.0),
        ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
        ({"Content-Type": "application/json"}, None),
    ])
    def test_parse(self, headers, seconds):
        assert _retry_after_of(headers) == seconds


class TestBuildRequest:
    def test_models_are_serialized(self):
        req = build_request(dex(), PLATFORM, "memminmin")
        assert req == {"graph": graph_to_dict(dex()),
                       "platform": platform_to_dict(PLATFORM),
                       "algorithm": "memminmin"}

    def test_dicts_pass_through_untouched(self):
        graph_d, platform_d = graph_to_dict(dex()), {"not": "checked"}
        req = build_request(graph_d, platform_d)
        assert req["graph"] is graph_d and req["platform"] is platform_d
        assert req["algorithm"] == "memheft"

    @pytest.mark.parametrize("options", [None, {}])
    def test_empty_options_are_omitted(self, options):
        assert "options" not in build_request(dex(), PLATFORM,
                                              options=options)

    def test_options_are_carried(self):
        req = build_request(dex(), PLATFORM, options={"comm_policy": "eager"})
        assert req["options"] == {"comm_policy": "eager"}


class TestHeaders:
    def test_plain(self):
        assert ServiceClient()._headers() == \
            {"Content-Type": "application/json"}

    @pytest.mark.parametrize("deadline, ms", [
        (0.0, "0"), (0.0004, "0"), (1.5, "1500"), (30, "30000")])
    def test_deadline_in_whole_milliseconds(self, deadline, ms):
        headers = ServiceClient(deadline=deadline)._headers()
        assert headers["X-Deadline-Ms"] == ms

    def test_trace_context_is_propagated(self, tmp_path):
        with obs.observing(tmp_path / "t.jsonl",
                           trace_ident=("client", "headers")):
            with obs.span("outer"):
                headers = ServiceClient()._headers()
                trace_id, span_id = obs.trace_context()
        assert headers["X-Trace-Id"] == trace_id
        assert headers["X-Span-Id"] == span_id


class TestParse:
    def test_ok_body_is_returned(self):
        assert ServiceClient._parse(200, b'{"a": 1}') == {"a": 1}

    def test_structured_error(self):
        body = json.dumps({"error": {"status": 422, "type": "infeasible",
                                     "message": "too small"}}).encode()
        with pytest.raises(ServiceClientError) as err:
            ServiceClient._parse(422, body, {"Retry-After": "4"})
        assert (err.value.status, err.value.err_type, err.value.message,
                err.value.retry_after) == (422, "infeasible", "too small",
                                           4.0)
        assert str(err.value) == "[422/infeasible] too small"

    @pytest.mark.parametrize("body", [b"[1, 2]", b'{"detail": "x"}'])
    def test_unstructured_error_body(self, body):
        with pytest.raises(ServiceClientError) as err:
            ServiceClient._parse(500, body)
        assert err.value.status == 500
        assert err.value.err_type == "unknown"
        assert err.value.retry_after is None

    @pytest.mark.parametrize("status", [200, 502])
    def test_non_json_body_is_a_transport_error(self, status):
        with pytest.raises(ServiceClientError) as err:
            ServiceClient._parse(status, b"<html>bad gateway</html>")
        assert err.value.status == status
        assert err.value.err_type == "transport"
        assert "bad gateway" in err.value.message


class TestScheduleResponse:
    def test_from_dict_keeps_raw_and_cached(self):
        data = {"digest": "d", "algorithm": "memheft", "makespan": 2.0,
                "peaks": [1.0, 0.0], "schedule": {"tasks": []},
                "ignored": True}
        resp = ScheduleResponse.from_dict(data, cached=True, raw=b"xyz")
        assert (resp.digest, resp.makespan, resp.cached, resp.raw) == \
            ("d", 2.0, True, b"xyz")
        assert "xyz" not in repr(resp)

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            ScheduleResponse.from_dict({"digest": "d"})


class TestUnreachable:
    def test_wait_until_ready_times_out(self):
        client = ServiceClient("127.0.0.1", 1, timeout=1.0)
        with pytest.raises(ServiceClientError) as err:
            client.wait_until_ready(timeout=0.2, interval=0.05)
        assert (err.value.status, err.value.err_type) == (0, "timeout")
        assert "not ready" in err.value.message
        assert client._conn is None
