"""Scheduler instrumentation: observed runs commit bit-identical
schedules, populate the run/phase/selector metrics, and trace with
deterministic structure."""

import pytest

from repro import Platform, memheft, memminmin, memsufferage, obs
from repro.dags import dex, random_dag
from repro.obs.report import load_trace
from repro.scheduling.instrument import PHASE_SAMPLE
from repro.scheduling.state import InfeasibleScheduleError

ALGOS = {"memheft": memheft, "memminmin": memminmin,
         "memsufferage": memsufferage}


def _schedule_key(schedule):
    return (sorted(schedule.placements(),
                   key=lambda p: (p.task, p.start)),
            schedule.meta)


class TestParity:
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_observed_schedule_bit_identical(self, name):
        graph = random_dag(size=30, rng=1)
        platform = Platform(2, 2)
        plain = ALGOS[name](graph, platform)
        with obs.observing():
            observed = ALGOS[name](graph, platform)
        assert _schedule_key(plain) == _schedule_key(observed)

    def test_traced_schedule_bit_identical(self, tmp_path):
        graph = dex()
        platform = Platform(1, 1)
        plain = memheft(graph, platform)
        with obs.observing(tmp_path / "t.jsonl",
                           trace_ident=("test", "parity")):
            traced = memheft(graph, platform)
        assert _schedule_key(plain) == _schedule_key(traced)

    def test_infeasible_raises_identically(self):
        graph = random_dag(size=20, rng=0)
        tight = Platform(1, 1, 1e-9, 1e-9)
        with pytest.raises(InfeasibleScheduleError):
            memheft(graph, tight)
        with obs.observing():
            with pytest.raises(InfeasibleScheduleError):
                memheft(graph, tight)


class TestRunMetrics:
    def test_run_counters_and_phases(self):
        graph = random_dag(size=40, rng=2)
        assert graph.n_tasks > PHASE_SAMPLE   # sampling engages
        with obs.observing() as state:
            memheft(graph, Platform(2, 2))
        snap = state.registry.snapshot()
        alg = (("algorithm", "memheft"),)
        assert snap[("memsched_schedule_runs_total", alg)] == 1
        assert snap[("memsched_commits_total", alg)] == graph.n_tasks
        assert snap[("memsched_schedules_finalized_total", alg)] == 1
        select_s = snap[("memsched_phase_seconds_total",
                         (("algorithm", "memheft"), ("phase", "select")))]
        commit_s = snap[("memsched_phase_seconds_total",
                         (("algorithm", "memheft"), ("phase", "commit")))]
        rank_s = snap[("memsched_phase_seconds_total",
                       (("algorithm", "memheft"), ("phase", "rank")))]
        assert select_s > 0 and commit_s > 0 and rank_s > 0
        hist = snap[("memsched_schedule_tasks", alg)]
        assert hist["count"] == 1

    def test_selector_eval_counters(self):
        graph = random_dag(size=30, rng=3)
        with obs.observing() as state:
            memminmin(graph, Platform(2, 2))
        evals = {labels: value for (name, labels), value
                 in state.registry.snapshot().items()
                 if name == "memsched_selector_evals_total"}
        assert evals, "selector stats should fold into the registry"
        assert all(value >= 0 for value in evals.values())

    def test_metrics_accumulate_across_runs(self):
        graph = dex()
        with obs.observing() as state:
            memheft(graph, Platform(1, 1))
            memheft(graph, Platform(1, 1))
        snap = state.registry.snapshot()
        alg = (("algorithm", "memheft"),)
        assert snap[("memsched_schedule_runs_total", alg)] == 2
        assert snap[("memsched_commits_total", alg)] == 2 * graph.n_tasks


class TestTraceStructure:
    @staticmethod
    def _structure(path):
        return [{key: value for key, value in row.items()
                 if key not in ("t0", "dur")}
                for row in load_trace(path)]

    def test_two_runs_same_structure(self, tmp_path):
        graph = random_dag(size=25, rng=4)
        structures = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}.jsonl"
            with obs.observing(path, trace_ident=("test", "structure")):
                memheft(graph, Platform(2, 2))
            structures.append(self._structure(path))
        assert structures[0] == structures[1]

    def test_phase_spans_present(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.observing(path, trace_ident=("test", "phases")):
            memheft(dex(), Platform(1, 1))
        names = [row["name"] for row in load_trace(path)]
        for expected in ("memheft", "rank", "select", "commit"):
            assert expected in names
        # EST evaluation is timed inside select; it has no span of its own
        assert "est" not in names

    def test_span_parents_resolve(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.observing(path, trace_ident=("test", "parents")):
            memsufferage(dex(), Platform(1, 1))
        events = load_trace(path)
        ids = {row["span"] for row in events}
        for row in events:
            parent = row.get("parent")
            assert parent is None or parent in ids
