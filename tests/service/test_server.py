"""End-to-end service tests over real sockets: a ThreadedServer driven by
ServiceClient instances, including concurrent clients and a property test
for the client/server JSON round trip."""

import http.client
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import Platform
from repro.core.validation import validate_schedule
from repro.dags.daggen import random_dag
from repro.dags.toy import dex
from repro.io.json_io import schedule_to_dict
from repro.scheduling.registry import get_scheduler
from repro.service import (
    ServiceApp,
    ServiceClient,
    ServiceClientError,
    ThreadedServer,
)

PLATFORM = Platform(n_blue=1, n_red=1, mem_blue=5, mem_red=5)


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(ServiceApp(workers=1, cache_size=256)) as srv:
        ServiceClient(srv.host, srv.port).wait_until_ready()
        yield srv


@pytest.fixture
def client(server):
    c = ServiceClient(server.host, server.port)
    yield c
    c.close()


class TestRoundTrip:
    def test_schedule_equals_direct_call(self, client):
        resp = client.schedule(dex(), PLATFORM, "memheft")
        direct = get_scheduler("memheft")(dex(), PLATFORM)
        assert resp.schedule == schedule_to_dict(direct)
        assert resp.makespan == direct.makespan
        peaks = validate_schedule(dex(), PLATFORM, direct)
        assert resp.peaks == [peaks[m] for m in PLATFORM.memories()]

    def test_to_schedule_materialises(self, client):
        resp = client.schedule(dex(), PLATFORM, "memminmin")
        schedule = resp.to_schedule()
        validate_schedule(dex(), PLATFORM, schedule)
        assert schedule.makespan == resp.makespan

    def test_second_request_hits_cache_with_identical_bytes(self, client):
        g = random_dag(size=12, rng=101)
        cold = client.schedule(g, PLATFORM.unbounded())
        warm = client.schedule(g, PLATFORM.unbounded())
        assert cold.cached is False or cold.cached is True  # first may race
        assert warm.cached is True
        assert cold.raw == warm.raw

    def test_keep_alive_connection_reused(self, client):
        client.healthz()
        conn_before = client._conn
        client.healthz()
        assert client._conn is conn_before

    def test_batch_matches_singles(self, client):
        graphs = [random_dag(size=10, rng=s) for s in (7, 8)]
        singles = [client.schedule(g, PLATFORM.unbounded()) for g in graphs]
        results = client.batch([(g, PLATFORM.unbounded(), "memheft")
                                for g in graphs])
        for single, batched in zip(singles, results):
            assert batched.schedule == single.schedule
            assert batched.cached is True  # singles populated the cache

    def test_error_raises_client_error(self, client):
        with pytest.raises(ServiceClientError) as exc_info:
            client.schedule(dex(), PLATFORM, "quantum")
        assert exc_info.value.status == 400
        assert exc_info.value.err_type == "unknown_algorithm"

    def test_infeasible_maps_to_422(self, client):
        with pytest.raises(ServiceClientError) as exc_info:
            client.schedule(dex(), Platform(1, 1, 0.5, 0.5))
        assert exc_info.value.status == 422
        assert exc_info.value.err_type == "infeasible"

    def test_algorithms_and_healthz(self, client):
        names = [a["name"] for a in client.algorithms()]
        assert "memheft" in names and "memminmin" in names
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["n_requests"] >= 1


class TestMalformedHTTP:
    def test_bad_request_line(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        conn.sock = None
        import socket as socket_mod
        raw = socket_mod.create_connection((server.host, server.port),
                                           timeout=5)
        raw.sendall(b"NOT-A-REQUEST\r\n\r\n")
        data = raw.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]
        raw.close()
        conn.close()

    def test_bad_content_length(self, server):
        import socket as socket_mod
        raw = socket_mod.create_connection((server.host, server.port),
                                           timeout=5)
        raw.sendall(b"POST /schedule HTTP/1.1\r\n"
                    b"Content-Length: banana\r\n\r\n")
        data = raw.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]
        raw.close()

    def test_oversized_header_line_is_400_not_disconnect(self, server):
        import socket as socket_mod
        raw = socket_mod.create_connection((server.host, server.port),
                                           timeout=5)
        # One header line beyond the 64 KiB line limit.
        raw.sendall(b"POST /schedule HTTP/1.1\r\n"
                    b"X-Junk: " + b"a" * (70 * 1024) + b"\r\n\r\n")
        data = raw.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]
        raw.close()

    def test_invalid_json_body_is_400_not_disconnect(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        conn.request("POST", "/schedule", body=b"{oops",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        body = json.loads(resp.read())
        assert body["error"]["type"] == "bad_request"
        conn.close()


class TestClientRetryPolicy:
    def test_timeout_is_not_retried(self):
        app = ServiceApp()
        orig_handle = ServiceApp.handle

        def slow_handle(self, method, path, body, ctx=None):
            import time as time_mod
            time_mod.sleep(0.6)
            return orig_handle(self, method, path, body, ctx)

        app.handle = slow_handle.__get__(app)
        with ThreadedServer(app) as srv:
            client = ServiceClient(srv.host, srv.port, timeout=0.15)
            with pytest.raises(ServiceClientError) as exc_info:
                client.healthz()
            client.close()
            assert exc_info.value.err_type == "timeout"
            # Exactly one request reached the server: no blind resubmit.
            import time as time_mod
            time_mod.sleep(0.7)   # let the in-flight handler finish
            assert app.n_requests == 1

    def test_fresh_connection_failure_raises_immediately(self):
        client = ServiceClient("127.0.0.1", 1, timeout=1.0)
        with pytest.raises(ServiceClientError) as exc_info:
            client.healthz()
        assert exc_info.value.err_type == "transport"


class TestConcurrentClients:
    def test_concurrent_clients_get_bit_identical_schedules(self, server):
        """N threads × M mixed instances: every response must equal the
        direct library call, and repeated instances must be byte-stable."""
        graphs = [random_dag(size=14, rng=s) for s in (21, 22, 23)]
        platform = PLATFORM.unbounded()
        expected = [
            json.loads(json.dumps({
                "schedule": schedule_to_dict(
                    get_scheduler("memheft")(g, platform))
            }))["schedule"]
            for g in graphs
        ]
        failures: list[str] = []
        bodies: dict[tuple[int, int], bytes] = {}
        lock = threading.Lock()

        def worker(tid: int) -> None:
            client = ServiceClient(server.host, server.port)
            try:
                for rep in range(3):
                    for gi, g in enumerate(graphs):
                        resp = client.schedule(g, platform, "memheft")
                        if resp.schedule != expected[gi]:
                            with lock:
                                failures.append(
                                    f"thread {tid} graph {gi} mismatch")
                        with lock:
                            prev = bodies.setdefault((gi, 0), resp.raw)
                        if prev != resp.raw:
                            with lock:
                                failures.append(
                                    f"thread {tid} graph {gi} bytes differ")
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_cache_accounting_sums_hits_and_misses(self):
        # Fresh server so the counters start from zero.
        with ThreadedServer(ServiceApp()) as srv:
            graphs = [random_dag(size=10, rng=s) for s in (31, 32)]
            n_threads, reps = 4, 5

            def worker() -> None:
                client = ServiceClient(srv.host, srv.port)
                for _ in range(reps):
                    for g in graphs:
                        client.schedule(g, PLATFORM.unbounded())
                client.close()

            threads = [threading.Thread(target=worker)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = ServiceClient(srv.host, srv.port).healthz()["cache"]
        total = n_threads * reps * len(graphs)
        # The raw-body fast path answers byte-identical resubmissions with
        # one cache hit each; every request is accounted exactly once.
        assert stats["hits"] + stats["misses"] == total
        assert stats["size"] == len(graphs)
        assert stats["hits"] >= total - 2 * len(graphs)


# ----------------------------------------------------------------------
# client/server JSON roundtrip property test
# ----------------------------------------------------------------------
_params = st.fixed_dictionaries({
    "size": st.integers(min_value=1, max_value=18),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "algorithm": st.sampled_from(["memheft", "memminmin", "memsufferage"]),
})


class TestRoundTripProperty:
    @settings(max_examples=15, deadline=None)
    @given(_params)
    def test_served_schedule_equals_direct_library_call(self, server, p):
        g = random_dag(size=p["size"], rng=p["seed"])
        platform = Platform(2, 1)
        with ServiceClient(server.host, server.port) as client:
            resp = client.schedule(g, platform, p["algorithm"])
        direct = get_scheduler(p["algorithm"])(g, platform)
        assert resp.schedule == schedule_to_dict(direct)
        assert resp.makespan == direct.makespan
        # And the response parses back into a validating Schedule object.
        validate_schedule(g, platform, resp.to_schedule())


class TestConnectionClose:
    def test_connection_close_is_case_insensitive(self, server):
        import socket as socket_mod
        raw = socket_mod.create_connection((server.host, server.port),
                                           timeout=5)
        raw.sendall(b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n")
        chunks = []
        while True:
            data = raw.recv(4096)
            if not data:
                break   # server honoured Close and shut the socket
            chunks.append(data)
        head = b"".join(chunks)
        assert b"Connection: close" in head
        raw.close()


class TestHardening:
    """Connection cap (503 on saturation) and per-connection idle timeout
    — the service-hardening satellite of PR 4."""

    def test_saturated_server_answers_503(self):
        import socket as socket_mod
        with ThreadedServer(ServiceApp(), max_connections=1) as srv:
            ServiceClient(srv.host, srv.port).wait_until_ready()
            # Hold one keep-alive connection open...
            first = ServiceClient(srv.host, srv.port)
            first.healthz()
            try:
                # ...then a second connection must be rejected with 503.
                raw = socket_mod.create_connection((srv.host, srv.port),
                                                   timeout=5)
                raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                data = raw.recv(65536)
                assert b"503" in data.split(b"\r\n", 1)[0]
                assert b"saturated" in data
                raw.close()
                assert srv.server.n_rejected == 1
            finally:
                first.close()

    def test_rejected_client_sees_structured_error(self):
        with ThreadedServer(ServiceApp(), max_connections=1) as srv:
            holder = ServiceClient(srv.host, srv.port)
            holder.wait_until_ready()
            try:
                with pytest.raises(ServiceClientError) as exc_info:
                    ServiceClient(srv.host, srv.port).healthz()
                assert exc_info.value.status == 503
                assert exc_info.value.err_type == "saturated"
            finally:
                holder.close()

    def test_connections_below_cap_are_served(self):
        with ThreadedServer(ServiceApp(), max_connections=4) as srv:
            clients = [ServiceClient(srv.host, srv.port) for _ in range(3)]
            try:
                clients[0].wait_until_ready()
                for c in clients:
                    assert c.healthz()["status"] == "ok"
                assert srv.server.n_rejected == 0
            finally:
                for c in clients:
                    c.close()

    def test_idle_connection_is_closed_after_timeout(self):
        import socket as socket_mod
        import time as time_mod
        with ThreadedServer(ServiceApp(), idle_timeout=0.2) as srv:
            ServiceClient(srv.host, srv.port).wait_until_ready()
            raw = socket_mod.create_connection((srv.host, srv.port),
                                               timeout=5)
            raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert b"200" in raw.recv(65536).split(b"\r\n", 1)[0]
            time_mod.sleep(0.6)            # exceed the idle timeout
            # The server closed the idle socket: reading yields EOF.
            raw.settimeout(5)
            leftover = raw.recv(65536)
            assert leftover == b""
            raw.close()

    def test_client_survives_idle_timeout_via_reconnect(self):
        import time as time_mod
        with ThreadedServer(ServiceApp(), idle_timeout=0.2) as srv:
            client = ServiceClient(srv.host, srv.port)
            try:
                client.wait_until_ready()
                time_mod.sleep(0.6)
                # Keep-alive socket was idled out; the client's
                # retry-on-reused-socket policy reconnects transparently.
                assert client.healthz()["status"] == "ok"
            finally:
                client.close()

    def test_invalid_hardening_knobs_rejected(self):
        from repro.service.server import ServiceServer
        with pytest.raises(ValueError):
            ServiceServer(max_connections=0)
        with pytest.raises(ValueError):
            ServiceServer(idle_timeout=0.0)


class TestHeterogeneousService:
    """Schema v2 end to end: ``speeds`` accepted, digests split, responses
    carry per-proc durations that the speed-aware validator accepts."""

    def test_heterogeneous_submit_roundtrip(self, client):
        g = random_dag(size=15, rng=77)
        het = Platform(2, 1, speeds=[1.0, 2.0, 1.0])
        resp = client.schedule(g, het, "memheft")
        direct = get_scheduler("memheft")(g, het)
        assert resp.schedule == schedule_to_dict(direct)
        assert resp.makespan == direct.makespan
        validate_schedule(g, het, resp.to_schedule())

    def test_speeds_split_the_cache(self, client):
        g = random_dag(size=12, rng=78)
        hom = Platform(2, 1)
        het = Platform(2, 1, speeds=[1.0, 2.0, 1.0])
        a = client.schedule(g, hom)
        b = client.schedule(g, het)
        assert a.digest != b.digest
        assert client.schedule(g, het).cached is True

    def test_unit_speeds_hit_the_homogeneous_cache_entry(self, client):
        g = random_dag(size=12, rng=79)
        cold = client.schedule(g, Platform(2, 1))
        explicit = client.schedule(g, Platform(2, 1, speeds=[1.0] * 3))
        assert explicit.digest == cold.digest
        assert explicit.cached is True
        assert explicit.raw == cold.raw

    def test_healthz_reports_digest_schema(self, client):
        assert client.healthz()["digest_schema"] == 2


class TestDeadlines:
    def test_expired_deadline_is_shed_with_408(self):
        with ThreadedServer(ServiceApp(workers=1)) as srv:
            client = ServiceClient(srv.host, srv.port, timeout=5,
                                   deadline=1e-4)
            with pytest.raises(ServiceClientError) as err:
                client.healthz()
            client.close()
        assert err.value.status == 408
        assert err.value.err_type == "deadline_exceeded"


class TestSaturation:
    def test_retry_after_surfaces_on_503(self):
        app = ServiceApp(workers=1)
        with ThreadedServer(app, max_connections=1) as srv:
            holder = ServiceClient(srv.host, srv.port, timeout=5)
            assert holder.healthz()["status"] == "ok"   # keep-alive held
            second = ServiceClient(srv.host, srv.port, timeout=5)
            with pytest.raises(ServiceClientError) as err:
                second.healthz()
            holder.close()
            second.close()
        assert err.value.status == 503
        assert err.value.retry_after == 1.0


class TestJobIds:
    @pytest.mark.parametrize("job_id", ["a b", "100%", "why?", "naïve-ジョブ",
                                        "a%20b"])
    def test_job_id_round_trips_through_the_url(self, client, job_id):
        out = client.submit_job(dex(), session="ids", job_id=job_id,
                                platform=PLATFORM)
        assert out["job_id"] == job_id
        job = client.get_job(job_id, session="ids")
        assert (job["job_id"], job["session"]) == (job_id, "ids")
