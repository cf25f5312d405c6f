"""A planning round's flat union against the union ``TaskGraph``.

Each open job's block (the rows of its one-job union's ``flatten()``
cut into topological generations, and its upward ranks) is cached
while the job is open, and a round concatenates the blocks into one
``FlatGraph``.
That flat must be ``build_union_graph(jobs).flatten()`` field for field,
and its rank order ``rank_order(build_union_graph(jobs))``, for any job
set: relabelled task ids, tasks and edges inserted in shuffled order,
k = 1-3 memory classes, fractional times and sizes, heterogeneous
processor speeds.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Platform
from repro.core.graph import TaskGraph
from repro.online import OnlineSession, build_union_graph
from repro.online import session as session_mod
from repro.online.session import OnlineJob
from repro.scheduling.ranks import rank_order, upward_ranks

FIELDS = ("order", "index", "parent_ptr", "parent_row", "parent_comm",
          "parent_size", "child_ptr", "child_row", "out_size", "times",
          "n_classes")
SPEEDS = (0.5, 0.75, 1.0, 1.5, 3.0)


def _job_graph(rng: random.Random, k: int, name: str) -> TaskGraph:
    """A random DAG of 1-9 tasks: ids drawn at random (so neither their
    values nor their ``str`` follow the hidden topological order), tasks
    and edges inserted in shuffled order, fractional times and sizes."""
    n = rng.randint(1, 9)
    ids = rng.sample(range(1000), n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.45]
    graph = TaskGraph(name, n_classes=k)
    for i in rng.sample(range(n), n):
        graph.add_task(ids[i], times=[rng.choice((0.0, 0.1, 1 / 3, 2.7))
                                      * rng.randint(1, 9)
                                      for _ in range(k)])
    rng.shuffle(edges)
    for i, j in edges:
        graph.add_dependency(ids[i], ids[j],
                             size=rng.choice((0.0, 0.3, 1 / 3, 4.0)),
                             comm=rng.choice((0.0, 0.7, 1 / 3, 5.0)))
    return graph


@st.composite
def job_sets(draw):
    """``(jobs in arrival order, platform)``."""
    k = draw(st.integers(min_value=1, max_value=3))
    n_jobs = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    counts = [rng.randint(0, 2) for _ in range(k)]
    if not any(counts):
        counts[0] = 1
    platform = Platform(counts, [1000.0] * k,
                        speeds=[rng.choice(SPEEDS) for _ in range(sum(counts))])
    jobs = [OnlineJob(f"j{a}", _job_graph(rng, k, f"g{a}"), 0.0, 0.0, a)
            for a in range(n_jobs)]
    return jobs, platform


def _round(jobs, platform):
    """The round's union flat and rank positions, from fresh blocks."""
    session = OnlineSession(platform)
    blocks = [session._block(job) for job in jobs]
    return (session_mod._union_flat(blocks, platform.n_classes),
            session._rank_positions(blocks))


@settings(max_examples=150)
@given(job_sets())
def test_union_flat_is_the_networkx_union_flattened(case):
    jobs, platform = case
    flat, positions = _round(jobs, platform)
    union = build_union_graph(jobs, platform.n_classes)
    ref = union.flatten()
    for field in FIELDS:
        assert getattr(flat, field) == getattr(ref, field), field
    assert flat.roots() == union.roots()
    ranked = rank_order(union, rng=None, platform=platform)
    assert sorted(positions, key=positions.__getitem__) == ranked


@given(job_sets())
def test_csr_ranks_are_the_networkx_walk(case):
    """``upward_ranks`` over the CSR arrays gives the bits of the direct
    walk over the graph's children in reverse topological order."""
    jobs, platform = case
    for graph in (job.graph for job in jobs):
        for plat in (None, platform):
            k = graph.n_classes
            fastest = (plat.max_class_speeds if plat is not None
                       else [1.0] * k)
            ref = {}
            for task in reversed(graph.topological_order()):
                best = 0.0
                for child in graph.children(task):
                    best = max(best, ref[child]
                               + graph.comm(task, child) * ((k - 1) / k))
                times = graph.times(task)
                mean = (sum(times[c] / fastest[c] for c in range(k)) / k
                        if plat is not None else sum(times) / len(times))
                ref[task] = mean + best
            assert upward_ranks(graph, plat) == ref


def test_parents_follow_the_union_edge_order():
    """Edges inserted child-first: the job graph's own predecessor order
    of ``c`` is ``[b, a]``, the union's (u-major) is ``[a, b]``, and the
    block follows the union."""
    graph = TaskGraph("shuffled")
    for t in "abc":
        graph.add_task(t, w_blue=1.0, w_red=2.0)
    graph.add_dependency("b", "c", size=0.1, comm=1.0)
    graph.add_dependency("a", "c", size=0.2, comm=2.0)
    assert graph.parents("c") == ["b", "a"]
    jobs = [OnlineJob("j", graph, 0.0, 0.0, 0)]
    flat, _ = _round(jobs, Platform(1, 1))
    c = flat.index["j/c"]
    parents = flat.parent_row[flat.parent_ptr[c]:flat.parent_ptr[c + 1]]
    assert [flat.order[p] for p in parents] == ["j/a", "j/b"]
    assert flat.parent_size[flat.parent_ptr[c]:flat.parent_ptr[c + 1]] \
        == [0.2, 0.1]


def test_blocks_live_while_their_job_is_open(monkeypatch):
    """A job's block is built at its first round and dropped once the job
    has no decision left in the tail."""
    platform = Platform(1, 1)
    session = OnlineSession(platform, policy="replan:2")
    rng = random.Random(7)
    built = []
    original = session_mod._JobBlock

    class Counting(original):
        __slots__ = ()

        def __init__(self, job, plat):
            built.append(job.job_id)
            super().__init__(job, plat)

    monkeypatch.setattr(session_mod, "_JobBlock", Counting)
    carried = False
    for a in range(6):
        session.submit(_job_graph(rng, 2, f"g{a}"), release=float(a),
                       job_id=f"j{a}")
        session.poll(float(a))
        open_ids = {d.task.partition("/")[0] for d in session._tail}
        assert set(session._blocks) == open_ids
        carried = carried or bool(open_ids - {f"j{a}"})
    assert carried   # some block was reused by a later round
    assert built == [f"j{a}" for a in range(6)]
