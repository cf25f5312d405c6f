"""The offline-identity property: with every release zero, the online
session commits placements bit-identical to the offline heuristic on the
union DAG — per algorithm (DESIGN anchor pinned by
``repro.online.session``'s module docstring)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Platform, get_scheduler
from repro.dags import random_dag
from repro.online import OnlineSession, build_union_graph, simulate
from repro.online.loadgen import zero_release

pytest.importorskip("numpy")

ALGOS = ("memheft", "memminmin", "memsufferage")
POLICIES = ("immediate", "batched:2.5", "replan:4")

def _snap(session):
    out = []
    for job in sorted(session.jobs.values(), key=lambda j: j.arrival_index):
        for task, p in job.placements.items():
            out.append((f"{job.job_id}/{task}", p.proc, p.memory.index,
                        p.start, p.finish))
    return out


def _offline_snap(schedule, union):
    return [(str(t), p.proc, p.memory.index, p.start, p.finish)
            for t in union.tasks() for p in (schedule.placement(t),)]


@given(st.integers(min_value=1, max_value=4),          # n jobs
       st.integers(min_value=2, max_value=12),         # tasks per job
       st.integers(min_value=0, max_value=2**31 - 1),  # seed
       st.sampled_from(ALGOS))
def test_zero_release_online_equals_offline(n_jobs, size, seed, algo):
    graphs = [random_dag(size=size, width=0.4, density=0.5, jumps=3,
                         rng=seed + k) for k in range(n_jobs)]
    platform = Platform(n_blue=1 + seed % 2, n_red=1 + (seed >> 1) % 2)

    session = OnlineSession(platform, algorithm=algo)
    for g in graphs:
        session.submit(g, release=0.0)
    session.flush()

    union = build_union_graph(
        sorted(session.jobs.values(), key=lambda j: j.arrival_index),
        platform.n_classes)
    offline = get_scheduler(algo)(union, platform)
    assert sorted(_snap(session)) == sorted(_offline_snap(offline, union))
    assert session.makespan == offline.makespan


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("algo", ALGOS)
def test_identity_via_simulator(algo, policy):
    """The simulator path (the one the benchmark gates): a zero-release
    trace plans in one round under every arrival policy, ends
    offline-identical, and regret is exactly zero."""
    trace = zero_release([
        {"job": f"job-{k:04d}", "release": 3.0 * k,
         "graph": random_dag(size=10, width=0.4, density=0.5, jumps=3,
                             rng=100 + k)}
        for k in range(3)
    ])
    platform = Platform(n_blue=2, n_red=2)
    result = simulate(trace, platform, algorithm=algo, policy=policy)

    union = build_union_graph(
        sorted(result.session.jobs.values(),
               key=lambda j: j.arrival_index),
        platform.n_classes)
    offline = get_scheduler(algo)(union, platform)
    assert sorted(_snap(result.session)) == \
        sorted(_offline_snap(offline, union))
    assert result.regret() == 0.0


@pytest.mark.parametrize("policy", POLICIES)
def test_journal_repeats(policy):
    """Decision journals are part of the determinism contract: the same
    trace must produce the same bytes on every run."""
    trace = [
        {"job": f"job-{k:04d}", "release": 1.5 * k,
         "graph": random_dag(size=8, width=0.4, density=0.5, jumps=3,
                             rng=200 + k)}
        for k in range(4)
    ]
    platform = Platform(n_blue=1, n_red=1)
    reference = simulate(trace, platform, policy=policy).journal()
    assert simulate(trace, platform, policy=policy).journal() == reference
