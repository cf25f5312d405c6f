"""``graph_from_dict`` inserts its rows in bulk, yet builds exactly the
graph a loop of ``add_task``/``add_dependency`` calls builds — same node,
edge and predecessor order, same flat view — and fails on every malformed
row with the same exception and message."""

import random

import pytest

from repro.core.graph import TaskGraph
from repro.dags.linalg import cholesky_dag
from repro.dags.toy import dex
from repro.io.json_io import graph_from_dict, graph_to_dict

FLAT_FIELDS = ("order", "parent_ptr", "parent_row", "parent_comm",
               "parent_size", "child_ptr", "child_row", "out_size", "times",
               "n_classes")


def shuffled(data, seed):
    """The same graph with its task and edge rows in another order."""
    rng = random.Random(seed)
    tasks, edges = list(data["tasks"]), list(data["edges"])
    rng.shuffle(tasks)
    rng.shuffle(edges)
    return dict(data, tasks=tasks, edges=edges)


def built_one_by_one(data):
    """The graph a loop of single-row calls builds from ``data``."""
    g = TaskGraph(name=data.get("name", "taskgraph"),
                  n_classes=data.get("n_classes", 2))
    for row in data["tasks"]:
        times = row["times"] if "times" in row else (row["w_blue"],
                                                    row["w_red"])
        g.add_task(row["id"], times=times)
    for row in data["edges"]:
        g.add_dependency(row["src"], row["dst"], size=row.get("size", 0.0),
                         comm=row.get("comm", 0.0))
    return g


def k3_graph():
    g = TaskGraph("k3", n_classes=3)
    for t, times in (("x", (1.5, 2.0, 0.5)), ("y", (1.0, 1.0, 1.0)),
                     ("z", (0.1, 0.2, 0.3))):
        g.add_task(t, times=times)
    g.add_dependency("x", "z", size=0.3, comm=1.1)
    g.add_dependency("y", "z", size=0.7)
    return g


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", [dex, lambda: cholesky_dag(4), k3_graph])
def test_bulk_decode_equals_one_by_one(make, seed):
    data = shuffled(graph_to_dict(make()), seed)
    got, want = graph_from_dict(data), built_one_by_one(data)
    assert list(got._times.items()) == list(want._times.items())
    assert list(got.edge_items()) == list(want.edge_items())
    for t in want.tasks():
        assert list(got._pred[t]) == list(want._pred[t])
        assert list(got._succ[t]) == list(want._succ[t])
    assert got.topological_order() == want.topological_order()
    flat_got, flat_want = got.flatten(), want.flatten()
    for field in FLAT_FIELDS:
        assert getattr(flat_got, field) == getattr(flat_want, field), field
    # A round trip through the dict reproduces the same payload.
    assert graph_to_dict(got) == graph_to_dict(want)


def base():
    return {"name": "g", "n_classes": 2,
            "tasks": [{"id": "a", "w_blue": 1.0, "w_red": 2.0},
                      {"id": "b", "w_blue": 1.0, "w_red": 2.0},
                      {"id": 3, "times": [1.0, 1.0]}],
            "edges": [{"src": "a", "dst": "b", "size": 1.0, "comm": 2.0},
                      {"src": "b", "dst": 3, "size": 0.5}]}


def set_row(table, i, **fields):
    def mutate(data):
        data[table][i] = dict(data[table][i], **fields)
    return mutate


def append_row(table, row):
    def mutate(data):
        data[table].append(row)
    return mutate


def drop_field(table, i, key):
    def mutate(data):
        del data[table][i][key]
    return mutate


NAN, INF = float("nan"), float("inf")
HUGE = 10 ** 400   # a JSON integer too large for a float
SIZE_MSG = "size/comm of ({}) must be finite and >= 0"

MALFORMED = {
    "duplicate task": (append_row("tasks", {"id": "a", "w_blue": 1, "w_red": 1}),
                       ValueError, "duplicate task 'a'"),
    "duplicate edge": (append_row("edges", {"src": "a", "dst": "b"}),
                       ValueError, "duplicate edge ('a', 'b')"),
    "unknown source": (append_row("edges", {"src": "z", "dst": "b"}),
                       ValueError, "both endpoints of ('z', 'b') must be tasks"),
    "unknown target": (append_row("edges", {"src": "a", "dst": "z"}),
                       ValueError, "both endpoints of ('a', 'z') must be tasks"),
    "unhashable endpoint": (
        set_row("edges", 0, src=["x"]),
        ValueError, "both endpoints of (['x'], 'b') must be tasks"),
    "self-loop": (append_row("edges", {"src": "a", "dst": "a"}),
                  ValueError, "self-loop on 'a'"),
    "NaN time": (set_row("tasks", 0, w_blue=NAN), ValueError,
                 "processing times of 'a' must be finite and >= 0"),
    "inf time": (set_row("tasks", 2, times=[1.0, INF]), ValueError,
                 "processing times of 3 must be finite and >= 0"),
    "negative time": (set_row("tasks", 1, w_red=-1.0), ValueError,
                      "processing times of 'b' must be finite and >= 0"),
    "NaN size": (set_row("edges", 0, size=NAN), ValueError,
                 SIZE_MSG.format("'a', 'b'")),
    "inf size": (set_row("edges", 1, size=INF), ValueError,
                 SIZE_MSG.format("'b', 3")),
    "huge time": (set_row("tasks", 1, w_blue=HUGE), ValueError,
                  "processing times of 'b' must be finite and >= 0"),
    "huge k-ary time": (set_row("tasks", 2, times=[1.0, HUGE]), ValueError,
                        "processing times of 3 must be finite and >= 0"),
    "huge size": (set_row("edges", 1, size=HUGE), ValueError,
                  SIZE_MSG.format("'b', 3")),
    "huge comm": (set_row("edges", 0, comm=HUGE), ValueError,
                  SIZE_MSG.format("'a', 'b'")),
    "negative size": (set_row("edges", 0, size=-0.5), ValueError,
                      SIZE_MSG.format("'a', 'b'")),
    "negative comm": (set_row("edges", 0, comm=-1), ValueError,
                      SIZE_MSG.format("'a', 'b'")),
    "too many times": (set_row("tasks", 2, times=[1.0, 2.0, 3.0]),
                       ValueError, "3: expected 2 times, got 3"),
    "too few times": (set_row("tasks", 2, times=[1.0]),
                      ValueError, "3: expected 2 times, got 1"),
    "missing id": (drop_field("tasks", 1, "id"), KeyError, "'id'"),
    "missing w_red": (drop_field("tasks", 0, "w_red"), KeyError, "'w_red'"),
    "missing src": (drop_field("edges", 1, "src"), KeyError, "'src'"),
    "None id": (set_row("tasks", 1, id=None), ValueError,
                "None cannot be a node"),
    "unhashable id": (set_row("tasks", 1, id=["x"]), TypeError,
                      "unhashable type: 'list'"),
    "string time": (set_row("tasks", 0, w_blue="fast"), ValueError,
                    "could not convert string to float: 'fast'"),
    "string size": (set_row("edges", 0, size="big"), TypeError,
                    "'<' not supported between instances of 'str' and 'int'"),
    "scalar times": (set_row("tasks", 2, times=5), TypeError,
                     "'int' object is not iterable"),
    "row not an object": (append_row("tasks", 7), TypeError,
                          "argument of type 'int' is not iterable"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_row_keeps_its_message(case):
    mutate, exc_type, message = MALFORMED[case]
    data = base()
    mutate(data)
    with pytest.raises(exc_type) as bulk:
        graph_from_dict(data)
    with pytest.raises(exc_type) as loop:
        built_one_by_one(data)
    assert str(bulk.value) == str(loop.value) == message


def test_failed_row_leaves_earlier_rows_added():
    g = TaskGraph("partial")
    with pytest.raises(ValueError, match="duplicate task 'a'"):
        g.add_tasks([("a", (1.0, 1.0)), ("b", (1.0, 1.0)), ("a", (1.0, 1.0))])
    assert list(g.tasks()) == ["a", "b"]
    with pytest.raises(ValueError, match="self-loop"):
        g.add_dependencies([("a", "b", 1.0, 0.0), ("b", "b", 1.0, 0.0)])
    assert list(g.edges()) == [("a", "b")]


def cyclic():
    data = base()
    data["edges"].append({"src": 3, "dst": "a", "size": 1.0})
    return graph_from_dict(data)


def test_cycle_decodes_but_fails_validate_and_flatten():
    with pytest.raises(ValueError, match="task graph contains a cycle"):
        cyclic().validate()
    with pytest.raises(ValueError, match="task graph contains a cycle"):
        cyclic().flatten()


def test_mutation_after_flatten_refreshes_the_views():
    g = graph_from_dict(base())
    assert g.flatten().n_tasks == 3
    g.add_tasks([("c", (1.0, 1.0))])
    g.add_dependencies([("c", "a", 2.0, 1.0)])
    assert g.topological_order()[0] == "c"
    assert g.flatten().n_tasks == 4
    g.add_dependencies([(3, "c", 1.0, 1.0)])
    with pytest.raises(ValueError, match="cycle"):
        g.validate()
