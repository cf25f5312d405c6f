"""Task-graph model (paper §3.1–3.2, generalised to k memory classes).

A :class:`TaskGraph` is a DAG whose nodes are tasks with one processing time
per memory class (``W^(c)`` for class ``c``; the paper's dual platform has
``W^(1)`` on blue and ``W^(2)`` on red) and whose edges are data files: edge
``(i, j)`` carries a file of size ``F_ij`` that must reside in memory while
either endpoint executes, and whose transfer between two *different*
memories takes ``C_ij`` time units (regardless of which pair of classes).

The class wraps a :class:`networkx.DiGraph` and exposes the accessors the
schedulers need (parents/children, per-memory time, memory requirement of a
task, cached topological order).  The historical dual-memory accessors
(``add_task(t, w_blue, w_red)``, ``w_blue``/``w_red``) remain available on
``k = 2`` graphs.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterator, Optional, Sequence, Union

import networkx as nx

from .platform import Memory

Task = Hashable
Edge = tuple[Task, Task]

#: Node attribute holding the per-class processing-time tuple.
ATTR_TIMES = "times"
#: Legacy node attribute names (kept on k = 2 graphs for interop).
ATTR_W_BLUE = "w_blue"
ATTR_W_RED = "w_red"
#: Edge attribute names.
ATTR_SIZE = "size"
ATTR_COMM = "comm"


class FlatGraph:
    """Contiguous array-of-structs view of a :class:`TaskGraph`.

    Rows are tasks in topological order; adjacency is CSR-encoded with the
    *exact* edge iteration order of :meth:`TaskGraph.parents` /
    :meth:`TaskGraph.children`, so a kernel walking the flat arrays
    accumulates floating-point sums in the same order — and hence to the
    same bits — as one walking the networkx adjacency.  Built once per
    :class:`~repro.scheduling.state.SchedulerState` via
    :meth:`TaskGraph.flatten` (cached on the graph, invalidated by
    mutation); everything here is immutable plain-Python data, shared
    freely between states.
    """

    __slots__ = ("order", "index", "parent_ptr", "parent_row", "parent_comm",
                 "parent_size", "child_ptr", "child_row", "out_size", "times")

    def __init__(self, graph: "TaskGraph") -> None:
        order = graph.topological_order()
        index = {t: i for i, t in enumerate(order)}
        n = len(order)
        parent_ptr = [0] * (n + 1)
        parent_row: list[int] = []
        parent_comm: list[float] = []
        parent_size: list[float] = []
        child_ptr = [0] * (n + 1)
        child_row: list[int] = []
        out_size = [0.0] * n
        times: list[tuple[float, ...]] = [()] * n
        for i, task in enumerate(order):
            times[i] = graph.times(task)
            for parent in graph.parents(task):
                parent_row.append(index[parent])
                parent_comm.append(graph.comm(parent, task))
                parent_size.append(graph.size(parent, task))
            parent_ptr[i + 1] = len(parent_row)
            total = 0.0
            for child in graph.children(task):
                child_row.append(index[child])
                total += graph.size(task, child)
            child_ptr[i + 1] = len(child_row)
            out_size[i] = total
        self.order = order
        self.index = index
        self.parent_ptr = parent_ptr
        self.parent_row = parent_row
        self.parent_comm = parent_comm
        self.parent_size = parent_size
        self.child_ptr = child_ptr
        self.child_row = child_row
        self.out_size = out_size
        self.times = times

    @property
    def n_tasks(self) -> int:
        return len(self.order)


class TaskGraph:
    """Directed acyclic task graph with per-class processing times and
    file edges."""

    def __init__(self, name: str = "taskgraph", n_classes: int = 2) -> None:
        if n_classes < 1:
            raise ValueError("need at least one memory class")
        self.name = name
        self.n_classes = n_classes
        self._g = nx.DiGraph()
        self._topo_cache: Optional[tuple[Task, ...]] = None
        self._flat_cache: Optional[FlatGraph] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task, w_blue: Optional[float] = None,
                 w_red: Optional[float] = None, *,
                 times: Optional[Sequence[float]] = None) -> Task:
        """Add a task with its per-class processing times; returns ``task``.

        Either pass ``times`` (one entry per memory class) or, on dual
        graphs, the historical ``w_blue``/``w_red`` pair.  Zero times are
        allowed (the paper's fictitious broadcast-pipeline tasks have null
        processing time on both resources).
        """
        if times is None:
            if w_blue is None or w_red is None:
                raise ValueError(f"{task!r}: pass times= or both w_blue/w_red")
            if self.n_classes != 2:
                raise ValueError(
                    f"{task!r}: w_blue/w_red only apply to 2-class graphs; "
                    f"this one has {self.n_classes} — pass times=")
            times = (w_blue, w_red)
        elif w_blue is not None or w_red is not None:
            raise ValueError(f"{task!r}: pass either times= or w_blue/w_red, not both")
        if task in self._g:
            raise ValueError(f"duplicate task {task!r}")
        times = tuple(float(w) for w in times)
        if len(times) != self.n_classes:
            raise ValueError(
                f"{task!r}: expected {self.n_classes} times, got {len(times)}")
        if any(w < 0 or not math.isfinite(w) for w in times):
            raise ValueError(f"processing times of {task!r} must be finite and >= 0")
        self._g.add_node(task, **{ATTR_TIMES: times})
        self._topo_cache = None
        self._flat_cache = None
        return task

    def add_dependency(self, u: Task, v: Task, size: float = 0.0, comm: float = 0.0) -> None:
        """Add edge ``(u, v)``: a file of ``size`` units, transfer time ``comm``."""
        if u not in self._g or v not in self._g:
            raise ValueError(f"both endpoints of ({u!r}, {v!r}) must be tasks")
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        if self._g.has_edge(u, v):
            raise ValueError(f"duplicate edge ({u!r}, {v!r})")
        if size < 0 or comm < 0 or not (math.isfinite(size) and math.isfinite(comm)):
            raise ValueError(f"size/comm of ({u!r}, {v!r}) must be finite and >= 0")
        # Acyclicity is checked lazily (validate() / topological_order()):
        # a per-edge reachability test would make graph construction quadratic.
        self._g.add_edge(u, v, **{ATTR_SIZE: float(size), ATTR_COMM: float(comm)})
        self._topo_cache = None
        self._flat_cache = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return self._g.number_of_nodes()

    @property
    def n_edges(self) -> int:
        return self._g.number_of_edges()

    def __len__(self) -> int:
        return self.n_tasks

    def __contains__(self, task: Task) -> bool:
        return task in self._g

    def tasks(self) -> Iterator[Task]:
        return iter(self._g.nodes)

    def edges(self) -> Iterator[Edge]:
        return iter(self._g.edges)

    def parents(self, task: Task) -> list[Task]:
        """Immediate predecessors of ``task``."""
        return list(self._g.predecessors(task))

    def children(self, task: Task) -> list[Task]:
        """Immediate successors of ``task``."""
        return list(self._g.successors(task))

    def in_degree(self, task: Task) -> int:
        return self._g.in_degree(task)

    def out_degree(self, task: Task) -> int:
        return self._g.out_degree(task)

    def roots(self) -> list[Task]:
        """Tasks without predecessors."""
        return [t for t in self._g.nodes if self._g.in_degree(t) == 0]

    def sinks(self) -> list[Task]:
        """Tasks without successors."""
        return [t for t in self._g.nodes if self._g.out_degree(t) == 0]

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def times(self, task: Task) -> tuple[float, ...]:
        """Per-class processing times of ``task``."""
        return self._g.nodes[task][ATTR_TIMES]

    def w(self, task: Task, memory: Union[Memory, int]) -> float:
        """Processing time of ``task`` on a processor of ``memory``."""
        idx = memory.index if isinstance(memory, Memory) else int(memory)
        return self._g.nodes[task][ATTR_TIMES][idx]

    def w_blue(self, task: Task) -> float:
        return self._g.nodes[task][ATTR_TIMES][0]

    def w_red(self, task: Task) -> float:
        return self._g.nodes[task][ATTR_TIMES][1]

    def w_min(self, task: Task) -> float:
        """Fastest processing time of ``task`` over all resources."""
        return min(self._g.nodes[task][ATTR_TIMES])

    def w_mean(self, task: Task) -> float:
        """Mean processing time (used by the HEFT upward rank)."""
        times = self._g.nodes[task][ATTR_TIMES]
        return sum(times) / len(times)

    def size(self, u: Task, v: Task) -> float:
        """File size ``F_uv`` of edge ``(u, v)``."""
        return self._g.edges[u, v][ATTR_SIZE]

    def comm(self, u: Task, v: Task) -> float:
        """Cross-memory transfer time ``C_uv`` of edge ``(u, v)``."""
        return self._g.edges[u, v][ATTR_COMM]

    # ------------------------------------------------------------------
    # memory requirements (paper §3.2)
    # ------------------------------------------------------------------
    def in_size(self, task: Task) -> float:
        """Total size of the input files of ``task``."""
        return sum(self._g.edges[p, task][ATTR_SIZE] for p in self._g.predecessors(task))

    def out_size(self, task: Task) -> float:
        """Total size of the output files of ``task``."""
        return sum(self._g.edges[task, c][ATTR_SIZE] for c in self._g.successors(task))

    def mem_req(self, task: Task) -> float:
        """``MemReq(i)``: memory needed while ``task`` executes
        (all input files plus all output files, §3.2)."""
        return self.in_size(task) + self.out_size(task)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> tuple[Task, ...]:
        """A (cached) topological order of the tasks.

        Raises ``ValueError`` if the graph contains a cycle.
        """
        if self._topo_cache is None:
            try:
                self._topo_cache = tuple(nx.topological_sort(self._g))
            except nx.NetworkXUnfeasible as exc:
                raise ValueError("task graph contains a cycle") from exc
        return self._topo_cache

    def flatten(self) -> FlatGraph:
        """The (cached) :class:`FlatGraph` array view of this graph.

        Rebuilt lazily after any mutation; raises ``ValueError`` on cyclic
        graphs (the flattening is row-ordered by :meth:`topological_order`).
        """
        if self._flat_cache is None:
            self._flat_cache = FlatGraph(self)
        return self._flat_cache

    def ancestors(self, task: Task) -> set[Task]:
        return nx.ancestors(self._g, task)

    def descendants(self, task: Task) -> set[Task]:
        return nx.descendants(self._g, task)

    def longest_path_length(self, weight: str = "min") -> float:
        """Length of the longest path using per-task weights (``min``,
        ``mean``, ``blue``/``red``, or a class index as a string),
        ignoring communications."""
        if weight == "min":
            pick = self.w_min
        elif weight == "mean":
            pick = self.w_mean
        elif weight == "blue":
            pick = self.w_blue
        elif weight == "red":
            pick = self.w_red
        elif weight.isdigit():
            idx = int(weight)
            pick = lambda t: self.w(t, idx)  # noqa: E731
        else:
            raise KeyError(weight)
        best: dict[Task, float] = {}
        for t in self.topological_order():
            incoming = max((best[p] for p in self._g.predecessors(t)), default=0.0)
            best[t] = incoming + pick(t)
        return max(best.values(), default=0.0)

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if not nx.is_directed_acyclic_graph(self._g):
            raise ValueError("task graph contains a cycle")

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying :class:`networkx.DiGraph`.

        On dual graphs every node also carries the legacy ``w_blue`` /
        ``w_red`` attributes next to ``times``, for interop with external
        tooling written against the dual-memory layout.
        """
        g = self._g.copy()
        if self.n_classes == 2:
            for _node, data in g.nodes(data=True):
                data[ATTR_W_BLUE], data[ATTR_W_RED] = data[ATTR_TIMES]
        return g

    @classmethod
    def from_networkx(cls, g: nx.DiGraph, name: str = "taskgraph") -> "TaskGraph":
        """Build from a DiGraph carrying either ``times`` tuples or legacy
        ``w_blue``/``w_red`` node attributes, and ``size``/``comm`` edge
        attributes (missing edge attrs default 0)."""
        n_classes = 2
        for _node, data in g.nodes(data=True):
            if ATTR_TIMES in data:
                n_classes = len(data[ATTR_TIMES])
            break
        tg = cls(name=name, n_classes=n_classes)
        for node, data in g.nodes(data=True):
            if ATTR_TIMES in data:
                tg.add_task(node, times=data[ATTR_TIMES])
            else:
                tg.add_task(node, times=(data[ATTR_W_BLUE], data[ATTR_W_RED]))
        for u, v, data in g.edges(data=True):
            tg.add_dependency(u, v, data.get(ATTR_SIZE, 0.0), data.get(ATTR_COMM, 0.0))
        return tg

    def _empty_like(self) -> "TaskGraph":
        """A new empty graph of the same concrete type/arity (overridden by
        subclasses with different constructor signatures)."""
        return TaskGraph(name=self.name, n_classes=self.n_classes)

    def copy(self) -> "TaskGraph":
        clone = self._empty_like()
        for node, data in self._g.nodes(data=True):
            TaskGraph.add_task(clone, node, times=data[ATTR_TIMES])
        for u, v, data in self._g.edges(data=True):
            clone.add_dependency(u, v, data[ATTR_SIZE], data[ATTR_COMM])
        return clone

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    def total_work(self, memory: Optional[Union[Memory, int]] = None) -> float:
        """Sum of processing times (on ``memory``, or the per-task minimum)."""
        if memory is None:
            return sum(self.w_min(t) for t in self._g.nodes)
        return sum(self.w(t, memory) for t in self._g.nodes)

    def total_comm(self) -> float:
        """Sum of all edge transfer times."""
        return sum(d[ATTR_COMM] for _, _, d in self._g.edges(data=True))

    def total_file_size(self) -> float:
        """Sum of all file sizes."""
        return sum(d[ATTR_SIZE] for _, _, d in self._g.edges(data=True))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph({self.name!r}, n_tasks={self.n_tasks}, n_edges={self.n_edges})"
