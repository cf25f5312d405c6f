"""Task-graph model (paper §3.1–3.2, generalised to k memory classes).

A :class:`TaskGraph` is a DAG whose nodes are tasks with one processing time
per memory class (``W^(c)`` for class ``c``; the paper's dual platform has
``W^(1)`` on blue and ``W^(2)`` on red) and whose edges are data files: edge
``(i, j)`` carries a file of size ``F_ij`` that must reside in memory while
either endpoint executes, and whose transfer between two *different*
memories takes ``C_ij`` time units (regardless of which pair of classes).

The class keeps three insertion-ordered dicts — per-task times, and the
successor and predecessor maps whose edges carry ``(size, comm)`` — and
exposes the accessors the schedulers need (parents/children, per-memory
time, memory requirement of a task, cached topological order).  networkx
is needed only by :meth:`TaskGraph.to_networkx`.  The historical
dual-memory accessors (``add_task(t, w_blue, w_red)``,
``w_blue``/``w_red``) remain available on ``k = 2`` graphs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Union

from .platform import Memory

Task = Hashable
Edge = tuple[Task, Task]

#: networkx interop (:meth:`TaskGraph.to_networkx` / ``from_networkx``):
#: the node attribute holding the per-class processing-time tuple.
ATTR_TIMES = "times"
#: Legacy node attribute names (kept on k = 2 graphs for interop).
ATTR_W_BLUE = "w_blue"
ATTR_W_RED = "w_red"
#: Edge attribute names.
ATTR_SIZE = "size"
ATTR_COMM = "comm"


class FlatGraph:
    """Contiguous array-of-structs view of a :class:`TaskGraph`.

    Rows are tasks in topological order (generation-major, as
    :meth:`TaskGraph.topological_order` gives it, so the parentless rows
    form a prefix); adjacency is CSR-encoded with the *exact* edge
    iteration order of :meth:`TaskGraph.parents` /
    :meth:`TaskGraph.children`, so a kernel walking the flat arrays
    accumulates floating-point sums in the same order — and hence to the
    same bits — as one walking the graph's adjacency dicts.  Built once
    per graph by :meth:`TaskGraph.flatten` (cached on the graph,
    invalidated by mutation), or directly from arrays (an online session
    concatenates per-job flats into a round's union); everything here is
    immutable plain-Python data, shared freely between states.
    """

    __slots__ = ("order", "index", "parent_ptr", "parent_row", "parent_comm",
                 "parent_size", "child_ptr", "child_row", "out_size", "times",
                 "n_classes")

    def __init__(self, order, parent_ptr, parent_row, parent_comm,
                 parent_size, child_ptr, child_row, out_size, times,
                 n_classes: int) -> None:
        self.order = order
        self.index = dict(zip(order, range(len(order))))
        self.parent_ptr = parent_ptr
        self.parent_row = parent_row
        self.parent_comm = parent_comm
        self.parent_size = parent_size
        self.child_ptr = child_ptr
        self.child_row = child_row
        self.out_size = out_size
        self.times = times
        self.n_classes = n_classes

    @property
    def n_tasks(self) -> int:
        return len(self.order)

    def flatten(self) -> "FlatGraph":
        """A flat view is its own flat view (so a scheduler state can be
        built on either a :class:`TaskGraph` or a :class:`FlatGraph`)."""
        return self

    def roots(self) -> list:
        """Tasks without parents: the first topological generation, in
        the order :meth:`TaskGraph.roots` lists them."""
        return list(self.order[:bisect_right(self.parent_ptr, 0) - 1])


class TaskGraph:
    """Directed acyclic task graph with per-class processing times and
    file edges.

    ``_times`` maps each task to its times tuple, in insertion order;
    ``_succ[u][v]`` and ``_pred[v][u]`` hold edge ``(u, v)``'s
    ``(size, comm)`` tuple (the same object), each inner dict in edge
    insertion order.
    """

    def __init__(self, name: str = "taskgraph", n_classes: int = 2) -> None:
        if n_classes < 1:
            raise ValueError("need at least one memory class")
        self.name = name
        self.n_classes = n_classes
        self._times: dict[Task, tuple[float, ...]] = {}
        self._succ: dict[Task, dict[Task, tuple[float, float]]] = {}
        self._pred: dict[Task, dict[Task, tuple[float, float]]] = {}
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
        self.add_tasks(((task, times),))
        return task

    def add_dependency(self, u: Task, v: Task, size: float = 0.0, comm: float = 0.0) -> None:
        """Add edge ``(u, v)``: a file of ``size`` units, transfer time ``comm``."""
        self.add_dependencies(((u, v, size, comm),))

    def _invalidate(self) -> None:
        """Drop the views derived from the graph, before a mutation."""
        self._topo_cache = None
        self._flat_cache = None

    def add_tasks(self, rows: Iterable[tuple[Task, Sequence[float]]]) -> None:
        """Add ``(task, times)`` rows in order (:meth:`add_task` is the
        one-row case).  A duplicate id, a wrong number of times or a
        negative or non-finite time raises ``ValueError``, with the rows
        before it already added."""
        succ, pred, node = self._succ, self._pred, self._times
        n_classes = self.n_classes
        isfinite = math.isfinite
        self._invalidate()
        task = None
        try:
            for task, times in rows:
                if task in self:
                    raise ValueError(f"duplicate task {task!r}")
                times = tuple(map(float, times))
                if len(times) != n_classes:
                    raise ValueError(
                        f"{task!r}: expected {n_classes} times, got {len(times)}")
                for w in times:
                    if w < 0 or not isfinite(w):
                        raise ValueError(
                            f"processing times of {task!r} must be finite and >= 0")
                if task is None:
                    raise ValueError("None cannot be a node")
                succ[task] = {}
                pred[task] = {}
                node[task] = times
        except OverflowError:   # an integer too large for a float
            raise ValueError(
                f"processing times of {task!r} must be finite and >= 0") from None

    def add_dependencies(self, rows: Iterable[tuple[Task, Task, float, float]]
                         ) -> None:
        """Add ``(u, v, size, comm)`` edge rows in order
        (:meth:`add_dependency` is the one-row case).  An unknown endpoint,
        a self-loop, a duplicate edge or a negative or non-finite size or
        transfer time raises ``ValueError``, with the rows before it
        already added."""
        succ, pred, node = self._succ, self._pred, self._times
        isfinite = math.isfinite
        self._invalidate()
        u = v = None
        try:
            for u, v, size, comm in rows:
                try:
                    known = u in node and v in node
                except TypeError:   # unhashable: not a task
                    known = False
                if not known:
                    raise ValueError(f"both endpoints of ({u!r}, {v!r}) must be tasks")
                if u == v:
                    raise ValueError(f"self-loop on {u!r}")
                children = succ[u]
                if v in children:
                    raise ValueError(f"duplicate edge ({u!r}, {v!r})")
                if size < 0 or comm < 0 or not (isfinite(size) and isfinite(comm)):
                    raise ValueError(f"size/comm of ({u!r}, {v!r}) must be finite and >= 0")
                # Acyclicity is checked lazily (validate() / topological_order()):
                # a per-edge reachability test would make construction quadratic.
                children[v] = pred[v][u] = (float(size), float(comm))
        except OverflowError:   # an integer too large for a float
            raise ValueError(
                f"size/comm of ({u!r}, {v!r}) must be finite and >= 0") from None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._times)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def __len__(self) -> int:
        return self.n_tasks

    def __contains__(self, task: Task) -> bool:
        try:
            return task in self._times
        except TypeError:   # unhashable: not a task
            return False

    def tasks(self) -> Iterator[Task]:
        return iter(self._times)

    def edges(self) -> Iterator[Edge]:
        """Every edge, u-major: tasks in node order, each one's children
        in edge insertion order."""
        return ((u, v) for u, children in self._succ.items()
                for v in children)

    def edge_items(self) -> Iterator[tuple[Task, Task, float, float]]:
        """``(u, v, size, comm)`` of every edge, in :meth:`edges` order."""
        return ((u, v, size, comm) for u, children in self._succ.items()
                for v, (size, comm) in children.items())

    def parents(self, task: Task) -> list[Task]:
        """Immediate predecessors of ``task``."""
        return list(self._pred[task])

    def children(self, task: Task) -> list[Task]:
        """Immediate successors of ``task``."""
        return list(self._succ[task])

    def in_degree(self, task: Task) -> int:
        return len(self._pred[task])

    def out_degree(self, task: Task) -> int:
        return len(self._succ[task])

    def roots(self) -> list[Task]:
        """Tasks without predecessors."""
        return [t for t, ps in self._pred.items() if not ps]

    def sinks(self) -> list[Task]:
        """Tasks without successors."""
        return [t for t, cs in self._succ.items() if not cs]

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def times(self, task: Task) -> tuple[float, ...]:
        """Per-class processing times of ``task``."""
        return self._times[task]

    def w(self, task: Task, memory: Union[Memory, int]) -> float:
        """Processing time of ``task`` on a processor of ``memory``."""
        idx = memory.index if isinstance(memory, Memory) else int(memory)
        return self._times[task][idx]

    def w_blue(self, task: Task) -> float:
        return self._times[task][0]

    def w_red(self, task: Task) -> float:
        return self._times[task][1]

    def w_min(self, task: Task) -> float:
        """Fastest processing time of ``task`` over all resources."""
        return min(self._times[task])

    def w_mean(self, task: Task) -> float:
        """Mean processing time (used by the HEFT upward rank)."""
        times = self._times[task]
        return sum(times) / len(times)

    def size(self, u: Task, v: Task) -> float:
        """File size ``F_uv`` of edge ``(u, v)``."""
        return self._succ[u][v][0]

    def comm(self, u: Task, v: Task) -> float:
        """Cross-memory transfer time ``C_uv`` of edge ``(u, v)``."""
        return self._succ[u][v][1]

    # ------------------------------------------------------------------
    # memory requirements (paper §3.2)
    # ------------------------------------------------------------------
    def in_size(self, task: Task) -> float:
        """Total size of the input files of ``task``."""
        return sum(size for size, _ in self._pred[task].values())

    def out_size(self, task: Task) -> float:
        """Total size of the output files of ``task``."""
        return sum(size for size, _ in self._succ[task].values())

    def mem_req(self, task: Task) -> float:
        """``MemReq(i)``: memory needed while ``task`` executes
        (all input files plus all output files, §3.2)."""
        return self.in_size(task) + self.out_size(task)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> tuple[Task, ...]:
        """A (cached) topological order of the tasks.

        Generation-major (the order networkx's ``topological_sort`` gives):
        the parentless tasks in node order, then each generation's
        children in the order its last parent released them.  Raises
        ``ValueError`` if the graph contains a cycle.
        """
        if self._topo_cache is None:
            succ = self._succ
            pending = {t: len(ps) for t, ps in self._pred.items() if ps}
            generation = [t for t, ps in self._pred.items() if not ps]
            order: list[Task] = []
            while generation:
                order += generation
                following = []
                for t in generation:
                    for child in succ[t]:
                        left = pending[child] - 1
                        if left:
                            pending[child] = left
                        else:
                            del pending[child]
                            following.append(child)
                generation = following
            if pending:
                raise ValueError("task graph contains a cycle")
            self._topo_cache = tuple(order)
        return self._topo_cache

    def flatten(self) -> FlatGraph:
        """The (cached) :class:`FlatGraph` array view of this graph.

        Rebuilt lazily after any mutation; raises ``ValueError`` on cyclic
        graphs (the flattening is row-ordered by :meth:`topological_order`).
        One walk over the adjacency dicts fills the CSR arrays.
        """
        if self._flat_cache is None:
            order = self.topological_order()
            index = dict(zip(order, range(len(order))))
            pred, succ = self._pred, self._succ
            parent_ptr = [0]
            parent_row: list[int] = []
            parent_comm: list[float] = []
            parent_size: list[float] = []
            child_ptr = [0]
            child_row: list[int] = []
            out_size: list[float] = []
            for t in order:
                for p, (size, comm) in pred[t].items():
                    parent_row.append(index[p])
                    parent_comm.append(comm)
                    parent_size.append(size)
                parent_ptr.append(len(parent_row))
                total = 0.0
                for c, (size, _) in succ[t].items():
                    child_row.append(index[c])
                    total += size
                child_ptr.append(len(child_row))
                out_size.append(total)
            self._flat_cache = FlatGraph(
                order, parent_ptr, parent_row, parent_comm, parent_size,
                child_ptr, child_row, out_size,
                list(map(self._times.__getitem__, order)), self.n_classes)
        return self._flat_cache

    def ancestors(self, task: Task) -> set[Task]:
        return _reachable(self._pred, task)

    def descendants(self, task: Task) -> set[Task]:
        return _reachable(self._succ, task)

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
            incoming = max((best[p] for p in self._pred[t]), default=0.0)
            best[t] = incoming + pick(t)
        return max(best.values(), default=0.0)

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        The one invariant is acyclicity, which the (cached) topological
        sort of :meth:`topological_order` decides."""
        self.topological_order()

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_networkx(self):
        """The graph as a new :class:`networkx.DiGraph`: nodes in node
        order carrying ``times``, edges in :meth:`edges` order carrying
        ``size`` and ``comm``.

        On dual graphs every node also carries the legacy ``w_blue`` /
        ``w_red`` attributes next to ``times``, for interop with external
        tooling written against the dual-memory layout.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from((t, {ATTR_TIMES: times})
                         for t, times in self._times.items())
        if self.n_classes == 2:
            for _node, data in g.nodes(data=True):
                data[ATTR_W_BLUE], data[ATTR_W_RED] = data[ATTR_TIMES]
        g.add_edges_from((u, v, {ATTR_SIZE: size, ATTR_COMM: comm})
                         for u, v, size, comm in self.edge_items())
        return g

    @classmethod
    def from_networkx(cls, g, name: str = "taskgraph") -> "TaskGraph":
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

    def copy(self) -> "TaskGraph":
        clone = TaskGraph(name=self.name, n_classes=self.n_classes)
        clone.add_tasks(self._times.items())
        clone.add_dependencies(self.edge_items())
        return clone

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    def total_work(self, memory: Optional[Union[Memory, int]] = None) -> float:
        """Sum of processing times (on ``memory``, or the per-task minimum)."""
        if memory is None:
            return sum(self.w_min(t) for t in self._times)
        return sum(self.w(t, memory) for t in self._times)

    def total_comm(self) -> float:
        """Sum of all edge transfer times."""
        return sum(comm for _, _, _, comm in self.edge_items())

    def total_file_size(self) -> float:
        """Sum of all file sizes."""
        return sum(size for _, _, size, _ in self.edge_items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph({self.name!r}, n_tasks={self.n_tasks}, n_edges={self.n_edges})"


def _reachable(adjacency: dict, task: Task) -> set[Task]:
    """The tasks other than ``task`` reachable from it along
    ``adjacency`` (``_succ`` or ``_pred``), walked breadth first."""
    seen = {task}
    queue = [task]
    for t in queue:
        for nxt in adjacency[t]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return set(queue[1:])
