"""Event-driven simulator: event ordering, determinism, latency stats,
regret plumbing."""

import hashlib
import json

import pytest

from repro import Platform
from repro.online import poisson_trace, simulate
from repro.io.json_io import graph_to_dict

pytest.importorskip("numpy")

PLATFORM = Platform(n_blue=2, n_red=2)


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(10, seed=4, rate=2.0, tick=2.5, size=8)


def test_simulate_plans_every_job(trace):
    result = simulate(trace, PLATFORM)
    assert result.session.summary()["n_planned"] == len(trace)
    assert result.session.n_pending == 0
    assert result.makespan > 0.0


def test_events_chronological_and_complete(trace):
    result = simulate(trace, PLATFORM)
    times = [e["t"] for e in result.events]
    assert times == sorted(times)
    releases = [e for e in result.events if e["kind"] == "release"]
    completes = [e for e in result.events if e["kind"] == "complete"]
    assert len(releases) == len(trace)
    assert len(completes) == len(trace)
    # a job can only complete after it was released
    released_at = {e["job"]: e["t"] for e in releases}
    for e in completes:
        assert e["t"] >= released_at[e["job"]]


def test_same_trace_same_journal(trace):
    a = simulate(trace, PLATFORM)
    b = simulate(trace, PLATFORM)
    assert a.journal() == b.journal()
    assert a.makespan == b.makespan
    assert [e["t"] for e in a.events] == [e["t"] for e in b.events]


def test_wire_dict_graphs_accepted(trace):
    """Trace rows may carry graphs in wire-dict form (what read_trace
    yields) — the result must match the TaskGraph-object run."""
    wire = [dict(row, graph=graph_to_dict(row["graph"]))
            if not isinstance(row["graph"], dict) else row
            for row in trace]
    assert simulate(wire, PLATFORM).journal() == \
        simulate(trace, PLATFORM).journal()


def test_latency_stats_shape(trace):
    stats = simulate(trace, PLATFORM).latency_stats()
    assert stats["n_rounds"] >= 1
    assert 0.0 <= stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]


def test_regret_accepts_precomputed_baseline(trace):
    result = simulate(trace, PLATFORM)
    assert result.regret(result.makespan) == 0.0
    assert result.regret(result.makespan / 2.0) == pytest.approx(1.0)
    assert result.regret(0.0) == 0.0   # degenerate baseline guard


def test_policies_share_the_stream(trace):
    """Different policies see the same arrivals; batched plans in at
    most as many rounds as immediate."""
    immediate = simulate(trace, PLATFORM, policy="immediate")
    batched = simulate(trace, PLATFORM, policy="batched:10")
    assert batched.session.summary()["n_rounds"] <= \
        immediate.session.summary()["n_rounds"]
    assert batched.session.summary()["n_planned"] == \
        immediate.session.summary()["n_planned"]


#: sha256 of ``json.dumps(events, sort_keys=True)`` for a 60-arrival
#: trace quantized to tick 1.0 (batched and replan rounds then complete
#: several jobs at one instant, so the order of equal-time events is
#: pinned too).
EVENT_DIGESTS = {
    "immediate":
        "50ed693c2708300280ebb7d8c2b4d75ea3cad0d92846368968fbd4a9cd9d955e",
    "batched:1.5":
        "7bb33ef3b84b7d1cff28caf154f8de25b3b0765eb17c56d559b3ef9fb7ec82d5",
    "replan:4":
        "5b72c683fcc7130294dd8823b098ee38573d65eeef1f4e191dbdb99c07c3a096",
}


@pytest.mark.parametrize("policy", EVENT_DIGESTS)
def test_events_pinned(policy):
    trace = poisson_trace(60, seed=4, rate=2.0, tick=1.0, size=8)
    events = simulate(trace, PLATFORM, policy=policy).events
    assert len(events) == 2 * len(trace)
    digest = hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()).hexdigest()
    assert digest == EVENT_DIGESTS[policy]


def test_empty_job_has_release_but_no_completion():
    """A job without tasks is planned but has no finish to complete at."""
    from repro.core.graph import TaskGraph
    from repro.dags.toy import dex

    trace = [{"job": "e", "release": 0.0, "graph": TaskGraph("empty")},
             {"job": "d", "release": 0.0, "graph": dex()}]
    result = simulate(trace, PLATFORM)
    assert result.session.jobs["e"].state == "scheduled"
    assert [(e["kind"], e["job"]) for e in result.events] == [
        ("release", "e"), ("release", "d"), ("complete", "d")]


@pytest.mark.parametrize("policy", ["replan:4", "replan:16"])
def test_completions_are_final_finishes(policy):
    """Replan rounds move placed jobs after the round that first planned
    them; each job's one completion event is its final finish time."""
    trace = poisson_trace(60, seed=4, rate=2.0, tick=1.0, size=8)
    result = simulate(trace, PLATFORM, policy=policy)
    jobs = result.session.jobs
    completes = [e for e in result.events if e["kind"] == "complete"]
    placed = [j for j, job in jobs.items() if job.placements is not None]
    assert sorted(e["job"] for e in completes) == sorted(placed)
    for e in completes:
        assert e["t"] == jobs[e["job"]].finish
