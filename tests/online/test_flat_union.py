"""A planning round's flat union against the full union ``TaskGraph``.

Each open job's block (its one-job union's ``flatten()``, built from the
job graph's dicts, with topological generations and upward ranks) is
cached while the job is open.  A round builds one ``FlatGraph`` over its
live rows only (every task of a group job, the tail tasks of an open
job: a descendant-closed set) plus ghost rows (the other parents of live
rows).  Against ``build_union_graph(jobs).flatten()``, for any job set
— relabelled task ids, tasks and edges inserted in shuffled order,
k = 1-3 memory classes, fractional times and sizes, heterogeneous
processor speeds — the live rows keep the full union's relative order,
times, output sizes and edges; the ghosts are exactly the live rows'
other parents, come first and have no parents; and MemHEFT's rank
positions are ``rank_order(full union, rng=None)`` restricted to the
live tasks.
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
    """``(jobs in arrival order, platform, live task keys per job)``:
    each job is either planned in the round (all tasks live) or open with
    a non-empty descendant-closed set of tail tasks."""
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
    live = []
    for job in jobs:
        tasks = list(job.graph.tasks())
        if rng.random() < 0.4:
            live.append(set(tasks))
            continue
        seeds = rng.sample(tasks, rng.randint(1, len(tasks)))
        live.append(set(seeds).union(*map(job.graph.descendants, seeds)))
    return jobs, platform, live


def _round(jobs, platform, live):
    """The round's union flat, its ghosts and rank positions, from fresh
    blocks."""
    session = OnlineSession(platform)
    blocks = [session._block(job) for job in jobs]
    rows = [sorted(block.keys.index(t) for t in own)
            for block, own in zip(blocks, live)]
    flat, ghosts = session_mod._round_union(blocks, rows, platform.n_classes)
    return flat, ghosts, session._rank_positions(blocks, rows), blocks


def _edges(flat, row, ptr, rows, *data):
    """Row ``row``'s CSR edges as ``(task id, *data)`` tuples."""
    span = range(ptr[row], ptr[row + 1])
    return [(flat.order[rows[e]], *(d[e] for d in data)) for e in span]


def _parents(flat, row):
    return _edges(flat, row, flat.parent_ptr, flat.parent_row,
                  flat.parent_comm, flat.parent_size)


def _children(flat, row):
    return _edges(flat, row, flat.child_ptr, flat.child_row)


@settings(max_examples=150)
@given(job_sets())
def test_block_is_the_one_job_union_flattened(case):
    """A block's rows are ``build_union_graph((job,)).flatten()`` field
    for field, built without the union graph."""
    jobs, platform, _ = case
    session = OnlineSession(platform)
    for job in jobs:
        block = session._block(job)
        ref = build_union_graph((job,), platform.n_classes).flatten()
        for field in FIELDS:
            assert getattr(block.flat, field) == getattr(ref, field), field
        assert block.keys == job.graph.topological_order()
        for row, gen in enumerate(block.gens):
            assert gen == max((block.gens[p] for p in ref.parent_row[
                ref.parent_ptr[row]:ref.parent_ptr[row + 1]]),
                default=-1) + 1
        nodes = list(job.graph.tasks())
        assert [nodes[i] for i in block.node_pos] == list(block.keys)


@settings(max_examples=150)
@given(job_sets())
def test_round_union_is_the_full_union_restricted(case):
    jobs, platform, live = case
    flat, ghosts, positions, blocks = _round(jobs, platform, live)
    union = build_union_graph(jobs, platform.n_classes)
    ref = union.flatten()
    live_ids = {job.job_id + "/" + str(t)
                for job, own in zip(jobs, live) for t in own}
    # The ghosts are exactly the live tasks' parents outside the live set.
    ghost_ids = {job.job_id + "/" + str(p)
                 for job, own in zip(jobs, live)
                 for t in own for p in job.graph.parents(t)} - live_ids
    n_ghosts = len(ghosts)
    assert set(flat.order[:n_ghosts]) == ghost_ids
    assert [blocks[j].flat.order[r] for j, r in ghosts] \
        == list(flat.order[:n_ghosts])
    # Each kind keeps the full union's relative order ...
    assert list(flat.order[:n_ghosts]) == [t for t in ref.order
                                           if t in ghost_ids]
    assert list(flat.order[n_ghosts:]) == [t for t in ref.order
                                           if t in live_ids]
    # ... with the full union's times, output sizes and edges on live
    # rows; ghosts have no parents and list only their live children.
    for row, task in enumerate(flat.order):
        full = ref.index[task]
        assert flat.times[row] == ref.times[full]
        assert flat.out_size[row] == ref.out_size[full]
        if row < n_ghosts:
            assert _parents(flat, row) == []
            assert _children(flat, row) == [
                c for c in _children(ref, full) if c[0] in live_ids]
        else:
            assert _parents(flat, row) == _parents(ref, full)
            assert _children(flat, row) == _children(ref, full)
    # Parentless rows form a prefix.
    roots = [row for row in range(flat.n_tasks)
             if flat.parent_ptr[row] == flat.parent_ptr[row + 1]]
    assert roots == list(range(len(roots)))
    assert flat.roots() == [flat.order[row] for row in roots]
    ranked = rank_order(union, rng=None, platform=platform)
    assert sorted(positions, key=positions.__getitem__) \
        == [t for t in ranked if t in live_ids]


@given(job_sets())
def test_csr_ranks_are_the_networkx_walk(case):
    """``upward_ranks`` over the CSR arrays gives the bits of the direct
    walk over the graph's children in reverse topological order."""
    jobs, platform, _ = case
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


def test_ghost_parents_follow_the_union_edge_order():
    """Edges inserted child-first: the job graph's own predecessor order
    of ``c`` is ``[b, a]``, the union's (u-major) is ``[a, b]``.  With
    only ``c`` live, ``a`` and ``b`` are ghosts, first and in node order,
    and ``c`` keeps the union's parent order."""
    graph = TaskGraph("shuffled")
    for t in "abc":
        graph.add_task(t, w_blue=1.0, w_red=2.0)
    graph.add_dependency("b", "c", size=0.1, comm=1.0)
    graph.add_dependency("a", "c", size=0.2, comm=2.0)
    assert graph.parents("c") == ["b", "a"]
    jobs = [OnlineJob("j", graph, 0.0, 0.0, 0)]
    flat, ghosts, positions, _ = _round(jobs, Platform(1, 1), [{"c"}])
    assert flat.order == ("j/a", "j/b", "j/c")
    assert ghosts == [(0, 0), (0, 1)]
    assert _parents(flat, 2) == [("j/a", 2.0, 0.2), ("j/b", 1.0, 0.1)]
    assert _children(flat, 0) == _children(flat, 1) == [("j/c",)]
    assert flat.out_size == [0.2, 0.1, 0.0]
    assert positions == {"j/c": 0}


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
