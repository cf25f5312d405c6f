"""The dict-backed :class:`TaskGraph` against networkx as a reference.

networkx is a test-only dependency: each case is built twice, as a
``TaskGraph`` and as a ``networkx.DiGraph`` that gets the same tasks and
edges in the same order.  The DiGraph's ``copy()``, with the legacy
``w_blue``/``w_red`` node attributes on dual graphs, is what
``to_networkx`` returns; its ``pred``/``succ`` orders are the insertion
orders ``parents``/``children`` keep, and networkx's reachability is
what ``ancestors``/``descendants`` return.  Cases are seeded daggen DAGs
and a k = 3 graph, with tasks and edges inserted as ``graph_to_dict``
lists them (u-major) or in shuffled order.
"""

import random

import pytest

from repro.core.graph import TaskGraph
from repro.dags.daggen import random_dag
from repro.io.json_io import graph_to_dict

nx = pytest.importorskip("networkx")

FLAT_FIELDS = ("order", "index", "parent_ptr", "parent_row", "parent_comm",
               "parent_size", "child_ptr", "child_row", "out_size", "times",
               "n_classes")


def k3_rows() -> dict:
    return {"name": "k3", "n_classes": 3,
            "tasks": [{"id": t, "times": times} for t, times in (
                ("w", [1.0, 2.0, 3.0]), ("x", [1.5, 2.0, 0.5]),
                ("y", [1.0, 1.0, 1.0]), ("z", [0.1, 0.2, 0.3]))],
            "edges": [{"src": "w", "dst": "x", "size": 0.3, "comm": 1.1},
                      {"src": "w", "dst": "z", "size": 1 / 3, "comm": 2.0},
                      {"src": "x", "dst": "z", "size": 0.3, "comm": 1.1},
                      {"src": "y", "dst": "z", "size": 0.7, "comm": 0.0}]}


def cases():
    out = [(f"daggen{seed}", graph_to_dict(
        random_dag(size=20 + 5 * seed, width=0.5, rng=seed)))
        for seed in range(6)]
    out.append(("k3", k3_rows()))
    return out


def build(data: dict, shuffle: bool):
    """``(TaskGraph, networkx reference)`` from ``graph_to_dict`` rows."""
    tasks, edges = list(data["tasks"]), list(data["edges"])
    if shuffle:
        rng = random.Random(data["name"])
        rng.shuffle(tasks)
        rng.shuffle(edges)
    g = TaskGraph(data["name"], n_classes=data["n_classes"])
    ref = nx.DiGraph()
    for row in tasks:
        times = row["times"] if "times" in row else (row["w_blue"],
                                                     row["w_red"])
        g.add_task(row["id"], times=times)
        ref.add_node(row["id"], times=tuple(map(float, times)))
    for row in edges:
        g.add_dependency(row["src"], row["dst"], row["size"], row["comm"])
        ref.add_edge(row["src"], row["dst"], size=float(row["size"]),
                     comm=float(row["comm"]))
    return g, ref


def expected_networkx(g: TaskGraph, ref):
    want = ref.copy()
    if g.n_classes == 2:
        for _, data in want.nodes(data=True):
            data["w_blue"], data["w_red"] = data["times"]
    return want


def layout(d) -> list:
    """Everything observable about a DiGraph's data and orders."""
    return [d.graph,
            [(t, list(data.items())) for t, data in d.nodes(data=True)],
            [(u, v, list(data.items())) for u, v, data in d.edges(data=True)],
            [(t, list(d.pred[t]), list(d.succ[t])) for t in d]]


def same_flat(a: TaskGraph, b: TaskGraph) -> None:
    fa, fb = a.flatten(), b.flatten()
    for field in FLAT_FIELDS:
        assert getattr(fa, field) == getattr(fb, field), field


CASES = cases()
pytestmark = pytest.mark.parametrize(
    "name,data,shuffle",
    [(name, data, shuffle) for name, data in CASES
     for shuffle in (False, True)],
    ids=[f"{name}-{'shuffled' if shuffle else 'listed'}"
         for name, _ in CASES for shuffle in (False, True)])


def test_accessors_follow_insertion_order(name, data, shuffle):
    g, ref = build(data, shuffle)
    assert list(g.tasks()) == list(ref)
    assert list(g.edges()) == list(ref.edges())
    assert list(g.edge_items()) == [(u, v, d["size"], d["comm"])
                                    for u, v, d in ref.edges(data=True)]
    assert (g.n_tasks, g.n_edges) == (ref.number_of_nodes(),
                                      ref.number_of_edges())
    for t in ref:
        assert g.parents(t) == list(ref.pred[t])
        assert g.children(t) == list(ref.succ[t])
        assert (g.in_degree(t), g.out_degree(t)) == (ref.in_degree(t),
                                                     ref.out_degree(t))
        assert g.times(t) == ref.nodes[t]["times"]
    assert g.roots() == [t for t in ref if ref.in_degree(t) == 0]
    assert g.sinks() == [t for t in ref if ref.out_degree(t) == 0]


def test_to_networkx_is_the_reference_copy(name, data, shuffle):
    g, ref = build(data, shuffle)
    assert layout(g.to_networkx()) == layout(expected_networkx(g, ref))


def test_from_networkx_round_trip(name, data, shuffle):
    g, _ = build(data, shuffle)
    back = TaskGraph.from_networkx(g.to_networkx(), name=g.name)
    assert list(back.edge_items()) == list(g.edge_items())
    assert list(back.tasks()) == list(g.tasks())
    # from_networkx inserts edges u-major: the flat view is the one of a
    # graph built that way, which a listed (u-major) case already is.
    same_flat(back, g.copy())
    if not shuffle:
        same_flat(back, g)


def test_reachability_is_networkx(name, data, shuffle):
    g, ref = build(data, shuffle)
    for t in ref:
        assert g.ancestors(t) == nx.ancestors(ref, t)
        assert g.descendants(t) == nx.descendants(ref, t)


def test_copy_keeps_edge_and_parent_orders(name, data, shuffle):
    g, ref = build(data, shuffle)
    clone = g.copy()
    want = expected_networkx(g, ref)
    assert (clone.name, clone.n_classes) == (g.name, g.n_classes)
    assert list(clone.tasks()) == list(g.tasks())
    assert list(clone.edge_items()) == list(g.edge_items())
    for t in ref:
        assert clone.parents(t) == list(want.pred[t])
        assert clone.children(t) == g.children(t)
    assert clone.topological_order() == g.topological_order()
    clone.add_task("extra", times=(1.0,) * g.n_classes)
    assert "extra" not in g


def test_membership_and_none(name, data, shuffle):
    g, _ = build(data, shuffle)
    assert ([] in g) is False
    assert ({} in g) is False
    with pytest.raises(ValueError, match="None cannot be a node"):
        g.add_task(None, times=(1.0,) * g.n_classes)
