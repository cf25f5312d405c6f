"""Parallel experiment engine: serial/parallel equivalence, determinism,
per-cell seeding and reference caching."""

import math
import os
import pickle

import pytest

from repro import Platform
from repro.dags import dex, random_dag, small_rand_set
from repro.experiments import (
    ReferenceRun,
    absolute_sweep,
    cell_seed,
    comm_policy_ablation,
    map_cells,
    normalized_sweep,
    reference_run,
    resolve_jobs,
    tiebreak_ablation,
)
from repro.experiments.engine import default_chunk_size
from repro.experiments.sweep import SweepCell, SweepResult
from repro.io.json_io import schedule_to_dict
from repro.scheduling.registry import SCHEDULERS, get_scheduler


# Top-level so the process pool can pickle it.
def _square_cell(payload, cache, cell):
    cache["hits"] = cache.get("hits", 0) + 1
    return payload * cell * cell


def _pid_and_hits(payload, cache, cell):
    cache["hits"] = cache.get("hits", 0) + 1
    return os.getpid(), cache["hits"]


def _fail_on_three(payload, cache, cell):
    if cell == 3:
        raise ValueError(f"cell {cell} failed")
    return cell


class TestMapCells:
    def test_serial_preserves_order(self):
        assert map_cells(_square_cell, 2, [3, 1, 2]) == [18, 2, 8]

    def test_parallel_preserves_order(self):
        cells = list(range(20))
        assert map_cells(_square_cell, 1, cells, jobs=4) == \
            [c * c for c in cells]

    def test_cache_is_per_process_and_persistent(self):
        # Serial: one cache across all cells.
        seen = {}

        def worker(payload, cache, cell):
            cache.setdefault("n", 0)
            cache["n"] += 1
            seen["n"] = cache["n"]
            return cell

        map_cells(worker, None, [1, 2, 3])
        assert seen["n"] == 3

    def test_observed_serial_loop_times_and_traces_every_cell(
            self, tmp_path):
        from repro import obs
        from repro.obs.report import load_trace

        cells = [3, 1, 2, 5]
        plain = map_cells(_square_cell, 2, cells)
        path = tmp_path / "serial.jsonl"
        with obs.observing(path, trace_ident=("test", "serial")) as st:
            observed = map_cells(_square_cell, 2, cells)
            hist = st.registry.histogram("memsched_cell_seconds",
                                         mode="serial")
            assert hist.count == len(cells)
        assert observed == plain == [18, 2, 8, 50]
        spans = [row for row in load_trace(path) if row["name"] == "cell"]
        assert sorted(row["attrs"]["i"] for row in spans) == \
            list(range(len(cells)))

    @pytest.mark.parametrize("removed",
                             ["hosts", "checkpoint", "resume", "on_result"])
    def test_serial_and_pool_are_the_only_modes(self, removed):
        with pytest.raises(TypeError):
            map_cells(_square_cell, 2, [1, 2], **{removed: None})

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_grid(self, jobs):
        assert map_cells(_square_cell, 2, [], jobs=jobs) == []

    def test_single_cell_runs_in_process(self):
        assert map_cells(_pid_and_hits, None, [0], jobs=4) == \
            [(os.getpid(), 1)]

    def test_cells_accept_any_iterable(self):
        assert map_cells(_square_cell, 1, iter([2, 3]), jobs=2) == [4, 9]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_exception_propagates(self, jobs):
        with pytest.raises(ValueError, match="cell 3 failed"):
            map_cells(_fail_on_three, None, [1, 2, 3, 4], jobs=jobs)

    def test_pool_worker_cache_survives_across_its_cells(self):
        results = map_cells(_pid_and_hits, None, list(range(16)), jobs=2)
        assert os.getpid() not in {pid for pid, _ in results}
        by_pid = {}
        for pid, hits in results:
            by_pid.setdefault(pid, []).append(hits)
        # one cache per worker process, kept across all of its cells
        assert sum(len(h) for h in by_pid.values()) == 16
        for hits in by_pid.values():
            assert sorted(hits) == list(range(1, len(hits) + 1))

    def test_pool_run_is_traced_as_one_span(self, tmp_path):
        from repro import obs
        from repro.obs.report import load_trace

        path = tmp_path / "pool.jsonl"
        with obs.observing(path, trace_ident=("test", "pool")):
            assert map_cells(_square_cell, 1, [1, 2, 3], jobs=2) == [1, 4, 9]
        spans = [row for row in load_trace(path)
                 if row["name"] == "map_cells"]
        assert len(spans) == 1
        assert spans[0]["attrs"] == {"mode": "pool", "n_cells": 3,
                                     "jobs": 2}

    @pytest.mark.parametrize("n_cells, jobs, chunk", [
        (0, 4, 1), (3, 4, 1), (16, 4, 1), (32, 4, 2), (100, 2, 12),
        (1000, 8, 31)])
    def test_default_chunk_size(self, n_cells, jobs, chunk):
        assert default_chunk_size(n_cells, jobs) == chunk

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1


class TestCellSeed:
    def test_value_is_pinned(self):
        # sha256-derived: any change here re-seeds every randomized cell
        # of every published sweep
        assert cell_seed("tiebreak", "g1", 0) == 2192149287539541302
        assert cell_seed() == 1665333220245342802

    def test_deterministic_and_distinct(self):
        a = cell_seed("tiebreak", "g1", 0)
        assert a == cell_seed("tiebreak", "g1", 0)
        assert a != cell_seed("tiebreak", "g1", 1)
        assert a != cell_seed("tiebreak", "g2", 0)
        assert 0 <= a < 2 ** 63


class TestParallelSerialEquivalence:
    @pytest.fixture(scope="class")
    def graphs(self):
        return small_rand_set(n_graphs=4, size=15)

    def test_normalized_sweep_jobs1_vs_jobs4(self, graphs):
        kwargs = dict(alphas=(0.4, 0.7, 1.0))
        serial = normalized_sweep(graphs, Platform(1, 1), **kwargs)
        parallel = normalized_sweep(graphs, Platform(1, 1), jobs=4, **kwargs)
        assert serial.algorithms == parallel.algorithms
        assert serial.alphas == parallel.alphas
        assert serial.cells == parallel.cells

    def test_two_parallel_runs_agree(self, graphs):
        kwargs = dict(alphas=(0.5, 1.0), jobs=4)
        a = normalized_sweep(graphs, Platform(1, 1), **kwargs)
        b = normalized_sweep(graphs, Platform(1, 1), **kwargs)
        assert a.cells == b.cells

    def test_absolute_sweep_jobs1_vs_jobs4(self, graphs):
        g = graphs[0]
        ref = reference_run(g, Platform(1, 1))
        grid = [ref.ref_memory * a for a in (0.4, 0.6, 0.8, 1.0)]
        serial = absolute_sweep(g, Platform(1, 1), grid)
        parallel = absolute_sweep(g, Platform(1, 1), grid, jobs=4)
        assert serial.points == parallel.points
        assert serial.lower_bound == parallel.lower_bound

    def test_comm_policy_ablation_parity(self, graphs):
        serial = comm_policy_ablation(graphs, Platform(1, 1), (0.6, 1.0))
        parallel = comm_policy_ablation(graphs, Platform(1, 1), (0.6, 1.0),
                                        jobs=3)
        assert serial == parallel

    def test_tiebreak_ablation_parity(self, graphs):
        serial = tiebreak_ablation(graphs[:2], Platform(1, 1), n_seeds=3)
        parallel = tiebreak_ablation(graphs[:2], Platform(1, 1), n_seeds=3,
                                     jobs=2)
        assert serial == parallel


class TestPoolPayloads:
    """Pool workers receive graphs, platforms and results by pickle; a
    round trip must not change what a cell computes or returns."""

    @pytest.mark.parametrize("algorithm", sorted(SCHEDULERS))
    def test_unpickled_inputs_schedule_identically(self, algorithm):
        graph = random_dag(size=15, rng=9)
        platform = Platform(n_blue=2, n_red=1, mem_blue=math.inf,
                            mem_red=math.inf, speeds=[1.0, 0.5, 2.0])
        graph.topological_order()   # warm the caches that get pickled
        run = get_scheduler(algorithm)
        direct = run(graph, platform)
        shipped = run(pickle.loads(pickle.dumps(graph)),
                      pickle.loads(pickle.dumps(platform)))
        assert schedule_to_dict(shipped) == schedule_to_dict(direct)

    def test_platform_round_trip(self):
        p = Platform(n_blue=2, n_red=1, mem_blue=math.inf, mem_red=40.0,
                     speeds=[1.0, 0.5, 2.0])
        out = pickle.loads(pickle.dumps(p))
        assert out.proc_counts == p.proc_counts
        assert out.capacities == p.capacities
        assert out.speeds == p.speeds

    def test_reference_run_round_trip(self):
        ref = reference_run(dex(), Platform(1, 1))
        out = pickle.loads(pickle.dumps(ref))
        assert (out.makespan, out.peaks) == (ref.makespan, ref.peaks)
        assert sorted(out.graph.tasks()) == sorted(ref.graph.tasks())

    @pytest.mark.parametrize("value", [
        SweepCell(0.5, "memminmin", 4, 3, 1.0000000000000002),
        SweepCell(0.1, "memheft", 4, 0, None),
    ], ids=["cell", "failed-cell"])
    def test_result_round_trip(self, value):
        assert pickle.loads(pickle.dumps(value)) == value


class TestReferenceRunKMemory:
    def test_ref_memory_takes_max_over_all_peaks(self):
        # Regression: the dual-era implementation read peaks[0]/peaks[1]
        # only, silently ignoring classes >= 2 on k-memory platforms.
        ref = ReferenceRun(graph=None, makespan=10.0, peaks=(3.0, 5.0, 9.0))
        assert ref.ref_memory == 9.0
        assert ref.peak_blue == 3.0 and ref.peak_red == 5.0

    def test_dual_facade_unchanged(self):
        ref = ReferenceRun(graph=None, makespan=10.0, peaks=(3.0, 5.0))
        assert ref.ref_memory == 5.0
        assert ref.peak_red == 5.0

    def test_single_class_peak_red_defaults_zero(self):
        ref = ReferenceRun(graph=None, makespan=1.0, peaks=(4.0,))
        assert ref.peak_red == 0.0
        assert ref.ref_memory == 4.0


class TestSweepResultIndex:
    def test_exact_and_tolerant_lookup(self):
        res = normalized_sweep(small_rand_set(2, 12), Platform(1, 1),
                               alphas=(0.5, 1.0))
        c = res.cell(1.0, "memheft")
        assert c.alpha == 1.0 and c.algorithm == "memheft"
        # repeated lookups return the same cell
        assert res.cell(1.0, "memheft") is c
        # near-miss alphas still resolve (isclose fallback)
        assert res.cell(1.0 + 1e-12, "memheft") is c
        with pytest.raises(KeyError):
            res.cell(0.123, "memheft")

    def test_index_rebuilds_after_append(self):
        res = SweepResult(algorithms=("x",), alphas=(0.5,))
        with pytest.raises(KeyError):
            res.cell(0.5, "x")
        from repro.experiments.sweep import SweepCell
        res.cells.append(SweepCell(0.5, "x", 1, 1, 1.0))
        assert res.cell(0.5, "x").n_success == 1
