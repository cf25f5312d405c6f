"""Distributed cell executor: serial ≡ distributed parity, weighted
dispatch, and every failure path the coordinator must survive — hosts
dying mid-sweep (chunks reassigned, no cell lost), hosts answering
malformed streams (structured error, sweep continues on survivors), and
deterministic per-cell errors (raised, never retried)."""

import time

import pytest

from repro import Platform
from repro.dags import small_rand_set
from repro.experiments import (
    CellExecutionError,
    RemoteExecutor,
    RemoteExecutorError,
    frontier_sweep,
    map_cells,
    normalized_sweep,
    remote_hosts,
)
from repro.experiments.ablation import comm_policy_ablation, tiebreak_ablation
from repro.experiments.engine import remote_worker
from repro.experiments.sweep import heterogeneity_sweep
from repro.service import ServiceApp, ThreadedServer


@remote_worker("test.remote_double")
def _double_cell(payload, cache, cell):
    return payload * cell


@remote_worker("test.remote_fail_on_7")
def _fail_on_7(payload, cache, cell):
    if cell == 7:
        raise ValueError("deterministic failure")
    return cell


def _unregistered_cell(payload, cache, cell):
    return cell


class SlowCellsApp(ServiceApp):
    """Healthy host whose /cells responses take a beat — keeps the work
    queue occupied long enough that a co-host provably pulls chunks."""

    def __init__(self, delay: float = 0.05) -> None:
        super().__init__(workers=1)
        self.delay = delay

    def _cells_stream(self, *args, **kwargs):
        inner = ServiceApp._cells_stream(self, *args, **kwargs)

        def gen():
            for line in inner:
                time.sleep(self.delay)
                yield line
        return gen()


class CrashingCellsApp(ServiceApp):
    """Host that dies mid-stream on every /cells request: one row goes out,
    then the connection is torn down without the NDJSON sentinel."""

    def __init__(self) -> None:
        super().__init__(workers=1)
        self.cells_requests = 0

    def _cells_stream(self, *args, **kwargs):
        self.cells_requests += 1
        inner = ServiceApp._cells_stream(self, *args, **kwargs)

        def gen():
            yield next(inner)
            raise RuntimeError("host crashed mid-stream")
        return gen()


class MalformedCellsApp(ServiceApp):
    """Host answering /cells with 200 + garbage instead of NDJSON rows."""

    def handle(self, method, path, body):
        if path == "/cells":
            return 200, {"Content-Type": "application/x-ndjson"}, \
                b"%% not ndjson %%\n"
        return super().handle(method, path, body)


class StaleProtocolApp(ServiceApp):
    """A pre-/cells service version: the route does not exist, so the
    request 404s with the route-level ``not_found`` error."""

    def handle(self, method, path, body):
        if path == "/cells":
            path = "/cells-did-not-exist-yet"
        return super().handle(method, path, body)


@pytest.fixture()
def two_hosts():
    with ThreadedServer(ServiceApp(workers=1)) as a, \
            ThreadedServer(ServiceApp(workers=1)) as b:
        yield [f"{a.host}:{a.port}", f"{b.host}:{b.port}"]


class TestParity:
    @pytest.fixture(scope="class")
    def graphs(self):
        return small_rand_set(n_graphs=3, size=14)

    def test_normalized_sweep_distributed_equals_serial(self, graphs,
                                                        two_hosts):
        kwargs = dict(alphas=(0.5, 0.75, 1.0))
        serial = normalized_sweep(graphs, Platform(1, 1), **kwargs)
        with remote_hosts(two_hosts):
            dist = normalized_sweep(graphs, Platform(1, 1), **kwargs)
        assert serial.cells == dist.cells
        assert serial.alphas == dist.alphas
        assert serial.algorithms == dist.algorithms

    def test_heterogeneity_sweep_distributed_equals_serial(self, graphs,
                                                           two_hosts):
        p = Platform(2, 2)
        serial = heterogeneity_sweep(graphs, p, spreads=(0.0, 0.5))
        with remote_hosts(two_hosts):
            dist = heterogeneity_sweep(graphs, p, spreads=(0.0, 0.5))
        assert serial.cells == dist.cells

    def test_frontier_sweep_distributed_equals_serial(self, graphs,
                                                      two_hosts):
        serial = frontier_sweep(graphs[:2], Platform(1, 1), rel_tol=0.05)
        with remote_hosts(two_hosts):
            dist = frontier_sweep(graphs[:2], Platform(1, 1), rel_tol=0.05)
        assert serial == dist

    def test_ablations_distributed_equal_serial(self, graphs, two_hosts):
        serial_cp = comm_policy_ablation(graphs, Platform(1, 1), (0.6, 1.0))
        serial_tb = tiebreak_ablation(graphs[:2], Platform(1, 1), n_seeds=3)
        with remote_hosts(two_hosts):
            dist_cp = comm_policy_ablation(graphs, Platform(1, 1),
                                           (0.6, 1.0))
            dist_tb = tiebreak_ablation(graphs[:2], Platform(1, 1),
                                        n_seeds=3)
        assert serial_cp == dist_cp
        assert serial_tb == dist_tb

    def test_explicit_hosts_argument(self, two_hosts):
        out = map_cells(_double_cell, 3, list(range(10)), hosts=two_hosts)
        assert out == [3 * c for c in range(10)]

    def test_executor_reused_across_calls(self, two_hosts):
        executor = RemoteExecutor(two_hosts)
        a = map_cells(_double_cell, 2, list(range(8)), hosts=executor)
        b = map_cells(_double_cell, 5, list(range(4)), hosts=executor)
        assert a == [2 * c for c in range(8)]
        assert b == [5 * c for c in range(4)]
        stats = executor.stats()
        assert sum(h["cells"] for h in stats["hosts"].values()) == 12


class TestWeighting:
    def test_weight_read_from_healthz_workers(self):
        with ThreadedServer(ServiceApp(workers=3)) as srv:
            executor = RemoteExecutor([f"{srv.host}:{srv.port}"])
            executor.probe()
            assert executor.hosts[0].weight == 3

    def test_all_cells_accounted_across_hosts(self, two_hosts):
        executor = RemoteExecutor(two_hosts)
        out = map_cells(_double_cell, 1, list(range(24)), hosts=executor)
        assert out == list(range(24))
        stats = executor.stats()
        assert sum(h["cells"] for h in stats["hosts"].values()) == 24
        assert stats["reassigned_chunks"] == 0


class TestFailurePaths:
    def test_host_dies_mid_sweep_chunks_reassigned(self):
        # One deliberately slow healthy host + one that crashes mid-stream
        # on every request: all cells must still come back, computed on
        # the survivor, with the failure accounted.
        crash_app = CrashingCellsApp()
        with ThreadedServer(SlowCellsApp(delay=0.03)) as good, \
                ThreadedServer(crash_app) as bad:
            executor = RemoteExecutor(
                [f"{good.host}:{good.port}", f"{bad.host}:{bad.port}"])
            cells = list(range(12))
            out = map_cells(_double_cell, 10, cells, hosts=executor)
        assert out == [10 * c for c in cells]          # no cell lost
        stats = executor.stats()
        bad_addr = f"{bad.host}:{bad.port}"
        assert crash_app.cells_requests >= 1           # it really was hit
        assert not stats["hosts"][bad_addr]["alive"]
        assert "truncated" in stats["hosts"][bad_addr]["error"]
        assert stats["reassigned_chunks"] >= 1
        assert stats["hosts"][bad_addr]["cells"] == 0  # nothing credited

    def test_malformed_host_structured_error_sweep_continues(self):
        with ThreadedServer(SlowCellsApp(delay=0.03)) as good, \
                ThreadedServer(MalformedCellsApp()) as bad:
            executor = RemoteExecutor(
                [f"{good.host}:{good.port}", f"{bad.host}:{bad.port}"])
            cells = list(range(10))
            out = map_cells(_double_cell, 4, cells, hosts=executor)
        assert out == [4 * c for c in cells]
        info = executor.stats()["hosts"][f"{bad.host}:{bad.port}"]
        assert not info["alive"]
        assert "NDJSON" in info["error"] or "malformed" in info["error"]

    def test_version_skewed_host_dies_sweep_survives(self):
        # A mixed fleet with one pre-/cells host: its route-level 404 must
        # kill that host, not the campaign ("only when every host is gone
        # does the sweep fail") — unlike unknown_worker/bad_request 4xxs,
        # which every host would answer identically.
        with ThreadedServer(SlowCellsApp(delay=0.03)) as good, \
                ThreadedServer(StaleProtocolApp()) as stale:
            executor = RemoteExecutor(
                [f"{good.host}:{good.port}", f"{stale.host}:{stale.port}"])
            cells = list(range(10))
            out = map_cells(_double_cell, 6, cells, hosts=executor)
        assert out == [6 * c for c in cells]
        info = executor.stats()["hosts"][f"{stale.host}:{stale.port}"]
        assert not info["alive"]
        assert "not_found" in info["error"]

    def test_all_hosts_dead_raises_with_host_errors(self):
        with ThreadedServer(MalformedCellsApp()) as only:
            executor = RemoteExecutor([f"{only.host}:{only.port}"])
            with pytest.raises(RemoteExecutorError) as exc_info:
                map_cells(_double_cell, 1, list(range(4)), hosts=executor)
        assert "cells still queued" in str(exc_info.value)

    def test_unreachable_host_skipped_at_probe(self, two_hosts):
        # Port 1 on localhost refuses connections instantly.
        executor = RemoteExecutor([two_hosts[0], "127.0.0.1:1"],
                                  ready_timeout=0.5)
        out = map_cells(_double_cell, 2, list(range(6)), hosts=executor)
        assert out == [2 * c for c in range(6)]
        stats = executor.stats()
        assert not stats["hosts"]["127.0.0.1:1"]["alive"]
        assert "probe failed" in stats["hosts"]["127.0.0.1:1"]["error"]

    def test_no_reachable_hosts_raises(self):
        executor = RemoteExecutor(["127.0.0.1:1"], ready_timeout=0.2)
        with pytest.raises(RemoteExecutorError) as exc_info:
            map_cells(_double_cell, 1, [1, 2], hosts=executor)
        assert "no usable hosts" in str(exc_info.value)

    def test_deterministic_cell_error_raises_not_retries(self, two_hosts):
        executor = RemoteExecutor(two_hosts)
        with pytest.raises(CellExecutionError) as exc_info:
            map_cells(_fail_on_7, None, list(range(10)), hosts=executor)
        assert "deterministic failure" in str(exc_info.value)
        # The worker bug is not a host failure: nobody got marked dead.
        assert all(h["alive"]
                   for h in executor.stats()["hosts"].values())

    def test_dead_host_resurrected_on_next_call(self, two_hosts):
        # A host marked dead mid-campaign (crash, 503 back-pressure) must
        # rejoin at the next map_cells call if it answers the re-probe —
        # transient failures cost one sweep, not the campaign.
        executor = RemoteExecutor(two_hosts)
        map_cells(_double_cell, 1, [1, 2], hosts=executor)
        dead = executor.hosts[0]
        dead.alive = False
        dead.error = "simulated mid-campaign failure"
        out = map_cells(_double_cell, 3, list(range(6)), hosts=executor)
        assert out == [3 * c for c in range(6)]
        info = executor.stats()["hosts"][dead.address]
        assert info["alive"] and info["error"] is None

    def test_probe_skips_healthy_hosts(self, two_hosts):
        executor = RemoteExecutor(two_hosts)
        executor.probe()
        # Weights were read once; a second probe with every host healthy
        # must be a no-op (no /healthz churn between back-to-back sweeps).
        before = [h.weight for h in executor.hosts]
        for h in executor.hosts:
            h.weight += 100   # would be overwritten by a real re-probe
        executor.probe()
        assert [h.weight for h in executor.hosts] == \
            [w + 100 for w in before]

    def test_unregistered_worker_rejected_locally(self, two_hosts):
        with pytest.raises(ValueError, match="not a registered"):
            map_cells(_unregistered_cell, None, [1, 2], hosts=two_hosts)

    def test_unknown_worker_on_host_is_fatal_not_retried(self, two_hosts):
        executor = RemoteExecutor(two_hosts)
        with pytest.raises(Exception) as exc_info:
            executor.map_cells("test.never_registered_xyz", None, [1])
        assert "never_registered_xyz" in str(exc_info.value)


class TestHostSpecs:
    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            RemoteExecutor([])
        with pytest.raises(ValueError):
            RemoteExecutor(["nocolon"])
        with pytest.raises(ValueError):
            RemoteExecutor(["h:1", "h:1"])

    def test_tuple_specs_accepted(self):
        executor = RemoteExecutor([("127.0.0.1", 8123)])
        assert executor.hosts[0].address == "127.0.0.1:8123"
