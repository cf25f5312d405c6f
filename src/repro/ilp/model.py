"""ILP formulation of the scheduling problem (paper §4, Figures 5–7).

Variables (names follow Figure 5; tuples key the
:class:`~repro.ilp.varman.VariableManager`):

==================  =========================================================
``("M",)``          makespan (continuous, minimised)
``("t", i)``        start time of task ``i``
``("tau", e)``      start time of communication ``e = (i, j)``
``("w", i)``        actual processing time of task ``i``
``("p", i)``        processor index of task ``i`` (continuous, 0-based; the
                    ``eps`` separation constraints make integrality
                    unnecessary)
``("b", i)``        1 iff task ``i`` runs on the blue memory (binary).  The
                    report's Fig 5/6 is internally inconsistent about the
                    orientation of ``b``; we use the consistent convention
                    ``b=1 <=> blue`` throughout
``("eps", i, j)``   1 if ``p_i < p_j`` (binary)
``("delta", i, j)`` 1 iff tasks ``i`` and ``j`` share a memory (binary,
                    stored once per unordered pair)
``("m", i, j)``     1 if ``i`` starts before ``j`` starts
``("sigma", i, j)`` 1 if ``i`` finishes before ``j`` starts
``("mp", k, e)``    1 if task ``k`` starts before comm ``e`` starts
``("sp", k, e)``    1 if task ``k`` finishes before comm ``e`` starts
``("c", e, k)``     1 if comm ``e`` starts before task ``k`` starts
``("d", e, k)``     1 if comm ``e`` finishes before task ``k`` starts
``("cp", e, f)``    1 if comm ``e`` starts before comm ``f`` starts
``("dp", e, f)``    1 if comm ``e`` finishes before comm ``f`` starts
``("alpha", f, i)`` linearisation of ``delta_ik * (m_ki - d_fi)`` (Fig 7)
``("beta",  f, i)`` linearisation of ``delta_ip * (c_fi - sigma_pi)``
``("alphap", f, e)`` / ``("betap", f, e)``  idem for constraint (27)
==================  =========================================================

The conventions ``m_ii = 1``, ``sigma_ii = 0`` and ``delta_ii = 1`` (pinned
by constraints (14)/(15) in the report) are inlined as constants.

Presolve: orderings implied by DAG reachability are fixed before solving
(ancestor starts/finishes first, transfers of an edge precede every
descendant of its consumer, ...), which removes the bulk of the binary
search space on structured graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Optional

import numpy as np
from scipy import sparse

from ..core.bounds import lower_bound
from ..core.graph import TaskGraph
from ..core.platform import Platform
from .varman import RowBuilder, VariableManager

Task = Hashable
Edge = tuple[Task, Task]


@dataclass
class ILPModel:
    """A built instance: ``min c @ x  s.t.  A_ub @ x <= b_ub, bounds``."""

    graph: TaskGraph
    platform: Platform
    vars: VariableManager
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    c: np.ndarray
    tasks: list[Task]
    edges: list[Edge]
    mmax: float
    labels: list[str] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    @property
    def n_constraints(self) -> int:
        return self.a_ub.shape[0]

    @property
    def n_binaries(self) -> int:
        return sum(
            1 for kk in self.vars.integer_columns()
            if self.vars.lb[kk] != self.vars.ub[kk]
        )


def _earliest_starts(graph: TaskGraph) -> dict[Task, float]:
    """Longest min-time path from the sources (valid ``t_i`` lower bounds)."""
    es: dict[Task, float] = {}
    for t in graph.topological_order():
        es[t] = max((es[p] + graph.w_min(p) for p in graph.parents(t)), default=0.0)
    return es


def _tails(graph: TaskGraph) -> dict[Task, float]:
    """Min-time bottom level including self (valid ``M - t_i`` lower bounds)."""
    tail: dict[Task, float] = {}
    for t in reversed(graph.topological_order()):
        tail[t] = graph.w_min(t) + max((tail[ch] for ch in graph.children(t)), default=0.0)
    return tail


def require_two_classes(platform: Platform) -> None:
    """The model has the paper's two memories (blue and red) only; any
    other class count is a ``ValueError``."""
    if platform.n_classes != 2:
        raise ValueError(
            f"the exact ILP models two memory classes; this platform has "
            f"{platform.n_classes}")


def build_model(
    graph: TaskGraph,
    platform: Platform,
    *,
    makespan_ub: Optional[float] = None,
    presolve: bool = True,
) -> ILPModel:
    """Construct the full ILP of Figures 5–7 for ``graph`` on ``platform``.

    ``makespan_ub`` (e.g. a heuristic makespan) caps ``M`` and every event
    time; path-based time windows are always added as valid inequalities;
    ``presolve`` fixes every ordering binary implied by DAG reachability.
    """
    require_two_classes(platform)
    graph.validate()
    tasks = list(graph.topological_order())
    edges = [tuple(e) for e in graph.edges()]
    n_p = platform.n_procs
    p1 = platform.n_blue
    ti = {t: k for k, t in enumerate(tasks)}

    mmax = (sum(graph.w_blue(t) for t in tasks)
            + sum(graph.w_red(t) for t in tasks)
            + graph.total_comm())
    if makespan_ub is not None:
        # A known schedule bounds every event time by its makespan, so the
        # big-M constant can shrink to UB + max transfer time — dramatically
        # tighter LP relaxations than the sum-of-everything default.
        max_c = max((graph.comm(u, v) for u, v in edges), default=0.0)
        mmax = min(mmax, makespan_ub + max_c + 1.0)
    mmax = max(mmax, 1.0)

    t_ub = mmax if makespan_ub is None else makespan_ub
    v = VariableManager()
    v.add(("M",), 0.0, t_ub)
    for t in tasks:
        v.add(("t", t), 0.0, t_ub)
        v.add(("w", t), min(graph.w_blue(t), graph.w_red(t)),
              max(graph.w_blue(t), graph.w_red(t)))
        v.add(("p", t), 0.0, max(n_p - 1, 0))
        v.binary(("b", t))
    for e in edges:
        v.add(("tau", e), 0.0, t_ub)

    def delta_name(i: Task, j: Task) -> tuple:
        a, b = (i, j) if ti[i] < ti[j] else (j, i)
        return ("delta", a, b)

    for a in tasks:
        for b in tasks:
            if ti[a] < ti[b]:
                v.binary(delta_name(a, b))
            if a != b:
                v.binary(("eps", a, b))
                v.binary(("m", a, b))
                v.binary(("sigma", a, b))
    for k in tasks:
        for e in edges:
            v.binary(("mp", k, e))
            v.binary(("sp", k, e))
            v.binary(("c", e, k))
            v.binary(("d", e, k))
    for e in edges:
        for f in edges:
            if e != f:
                v.binary(("cp", e, f))
                v.binary(("dp", e, f))

    rows = RowBuilder(v)
    inf = math.inf

    # ------------------------------------------------------------------
    # (1)-(3): makespan and flow
    # ------------------------------------------------------------------
    for t in tasks:
        rows.le({("t", t): 1, ("w", t): 1, ("M",): -1}, 0.0, "c1")
    for e in edges:
        i, j = e
        rows.le({("t", i): 1, ("w", i): 1, ("tau", e): -1}, 0.0, "c2")
        cij = graph.comm(i, j)
        rows.le({("tau", e): 1, delta_name(i, j): -cij, ("t", j): -1}, -cij, "c3")

    # ------------------------------------------------------------------
    # (4)-(11): ordering indicator definitions (big-M pairs)
    # ------------------------------------------------------------------
    for a in tasks:
        for b in tasks:
            if a == b:
                continue
            # (4) m_ab: a starts before b.
            rows.le({("t", b): 1, ("t", a): -1, ("m", a, b): -mmax}, 0.0, "c4a")
            rows.le({("t", a): 1, ("t", b): -1, ("m", a, b): mmax}, mmax, "c4b")
            # (6) sigma_ab: a finishes before b starts.
            rows.le({("t", b): 1, ("t", a): -1, ("w", a): -1,
                     ("sigma", a, b): -mmax}, 0.0, "c6a")
            rows.le({("t", a): 1, ("w", a): 1, ("t", b): -1,
                     ("sigma", a, b): mmax}, mmax, "c6b")
    for k in tasks:
        for e in edges:
            # (5) mp_ke: k starts before comm e.
            rows.le({("tau", e): 1, ("t", k): -1, ("mp", k, e): -mmax}, 0.0, "c5a")
            rows.le({("t", k): 1, ("tau", e): -1, ("mp", k, e): mmax}, mmax, "c5b")
            # (7) sp_ke: k finishes before comm e.
            rows.le({("tau", e): 1, ("t", k): -1, ("w", k): -1,
                     ("sp", k, e): -mmax}, 0.0, "c7a")
            rows.le({("t", k): 1, ("w", k): 1, ("tau", e): -1,
                     ("sp", k, e): mmax}, mmax, "c7b")
            # (8) c_ek: comm e starts before k.
            rows.le({("t", k): 1, ("tau", e): -1, ("c", e, k): -mmax}, 0.0, "c8a")
            rows.le({("tau", e): 1, ("t", k): -1, ("c", e, k): mmax}, mmax, "c8b")
            # (10) d_ek: comm e finishes before k starts.
            i, j = e
            cij = graph.comm(i, j)
            rows.le({("t", k): 1, ("tau", e): -1, delta_name(i, j): cij,
                     ("d", e, k): -mmax}, cij, "c10a")
            rows.le({("tau", e): 1, delta_name(i, j): -cij, ("t", k): -1,
                     ("d", e, k): mmax}, mmax - cij, "c10b")
    for e in edges:
        for f in edges:
            if e == f:
                continue
            # (9) cp_ef: e starts before f.
            rows.le({("tau", f): 1, ("tau", e): -1, ("cp", e, f): -mmax}, 0.0, "c9a")
            rows.le({("tau", e): 1, ("tau", f): -1, ("cp", e, f): mmax}, mmax, "c9b")
            # (11) dp_ef: e finishes before f starts.
            i, j = e
            cij = graph.comm(i, j)
            rows.le({("tau", f): 1, ("tau", e): -1, delta_name(i, j): cij,
                     ("dp", e, f): -mmax}, cij, "c11a")
            rows.le({("tau", e): 1, delta_name(i, j): -cij, ("tau", f): -1,
                     ("dp", e, f): mmax}, mmax - cij, "c11b")

    # ------------------------------------------------------------------
    # (12)-(13): processor indices vs eps / b
    # ------------------------------------------------------------------
    for a in tasks:
        for b in tasks:
            if a == b:
                continue
            rows.le({("p", b): 1, ("p", a): -1, ("eps", a, b): -n_p}, 0.0, "c12a")
            rows.le({("p", a): 1, ("p", b): -1, ("eps", a, b): n_p}, n_p - 1, "c12b")
    for t in tasks:
        # b=1 <=> p <= P1-1 (blue processors come first, 0-based).
        rows.le({("p", t): 1, ("b", t): n_p}, p1 - 1 + n_p, "c13a")
        rows.ge({("p", t): 1, ("b", t): n_p}, p1, "c13b")

    # ------------------------------------------------------------------
    # (14)-(22): indicator consistency
    # ------------------------------------------------------------------
    for a in tasks:
        for b in tasks:
            if ti[a] >= ti[b]:
                continue
            rows.ge({("m", a, b): 1, ("m", b, a): 1}, 1.0, "c14")
            rows.le({("sigma", a, b): 1, ("sigma", b, a): 1}, 1.0, "c15")
    for e in edges:
        for k in tasks:
            rows.ge({("mp", k, e): 1, ("c", e, k): 1}, 1.0, "c16")
    seen: set[frozenset] = set()
    for e in edges:
        for f in edges:
            if e == f:
                continue
            key = frozenset((e, f))
            if key in seen:
                continue
            seen.add(key)
            rows.ge({("cp", e, f): 1, ("cp", f, e): 1}, 1.0, "c17")
            rows.le({("dp", e, f): 1, ("dp", f, e): 1}, 1.0, "c18")
    for a in tasks:
        for b in tasks:
            if a != b:
                rows.le({("sigma", a, b): 1, ("m", a, b): -1}, 0.0, "c19")
    # "Finishes before" implies "starts before": (19) and (21) state it for
    # task/task and transfer/task pairs, this row for transfer pairs.
    # Without it a tie lets a zero-length transfer f set dp_fe = 1 and
    # cp_fe = 0, and (27) then counts f's file in neither copy.
    for e in edges:
        for f in edges:
            if e != f:
                rows.le({("dp", e, f): 1, ("cp", e, f): -1}, 0.0, "c19p")
    for e in edges:
        i, j = e
        for k in tasks:
            # (20) sigma_ik >= c_ek; sigma_ii == 0 pins c_(i,j),i to 0.
            if k == i:
                rows.le({("c", e, k): 1}, 0.0, "c20")
            elif k != i:
                rows.le({("c", e, k): 1, ("sigma", i, k): -1}, 0.0, "c20")
            # (21) c >= d.
            rows.le({("d", e, k): 1, ("c", e, k): -1}, 0.0, "c21")
            # (22) d_ek >= m_jk; m_jj == 1 pins d_(i,j),j to 1.
            if k == j:
                rows.ge({("d", e, k): 1}, 1.0, "c22")
            else:
                rows.ge({("d", e, k): 1, ("m", j, k): -1}, 0.0, "c22")

    # ------------------------------------------------------------------
    # (23)-(24): delta and w definitions
    # ------------------------------------------------------------------
    for a in tasks:
        for b in tasks:
            if ti[a] >= ti[b]:
                continue
            dn = delta_name(a, b)
            rows.le({dn: 1, ("b", a): -1, ("b", b): 1}, 1.0, "c23")
            rows.le({dn: 1, ("b", b): -1, ("b", a): 1}, 1.0, "c23")
            rows.ge({dn: 1, ("b", a): -1, ("b", b): -1}, -1.0, "c23")
            rows.ge({dn: 1, ("b", a): 1, ("b", b): 1}, 1.0, "c23")
    for t in tasks:
        w1, w2 = graph.w_blue(t), graph.w_red(t)
        # w = b*W1 + (1-b)*W2  (b=1 <=> blue).
        rows.eq({("w", t): 1, ("b", t): w2 - w1}, w2, "c24")

    # ------------------------------------------------------------------
    # (25): resource constraint
    # ------------------------------------------------------------------
    for a in tasks:
        for b in tasks:
            if ti[a] >= ti[b]:
                continue
            rows.ge({("sigma", a, b): 1, ("sigma", b, a): 1,
                     ("eps", a, b): 1, ("eps", b, a): 1}, 1.0, "c25")

    # ------------------------------------------------------------------
    # (26)-(27): memory constraints (linearised per Fig 7)
    # ------------------------------------------------------------------
    if platform.is_memory_bounded:
        total_files = graph.total_file_size()
        cap_blue = min(platform.mem_blue, total_files)
        cap_red = min(platform.mem_red, total_files)

        def add_product(name: tuple, delta_ref: tuple, pos: tuple, neg: tuple) -> tuple:
            """aux = delta * (pos - neg): the four Fig-7 inequalities."""
            v.add(name, 0.0, 1.0)
            rows.ge({name: 1, delta_ref: -1, pos: -1, neg: 1}, -1.0, "lin_lb")
            rows.le({name: 2, delta_ref: -1, pos: -1, neg: 1}, 0.0, "lin_ub")
            return name

        # (26): memory at each task start.
        for i in tasks:
            lhs: dict[tuple, float] = {}
            const = 0.0
            for f in edges:
                k, p = f
                fkp = graph.size(k, p)
                if fkp == 0.0:
                    continue
                # alpha: source copy — k's memory holds the file from k's
                # start until the transfer ends.
                if k == i:
                    const += fkp  # delta_ii=1, m_ii=1, d_(i,p),i pinned to 0
                else:
                    a = add_product(("alpha", f, i), delta_name(i, k),
                                    ("m", k, i), ("d", f, i))
                    lhs[a] = lhs.get(a, 0.0) + fkp
                # beta: destination copy — p's memory holds the file from the
                # transfer start until p finishes.
                if p == i:
                    lhs[("c", f, i)] = lhs.get(("c", f, i), 0.0) + fkp
                else:
                    bta = add_product(("beta", f, i), delta_name(i, p),
                                      ("c", f, i), ("sigma", p, i))
                    lhs[bta] = lhs.get(bta, 0.0) + fkp
            # RHS: b_i*cap_blue + (1-b_i)*cap_red.
            lhs[("b", i)] = lhs.get(("b", i), 0.0) - (cap_blue - cap_red)
            rows.le(lhs, cap_red - const, "c26")

        # (27): memory at each communication start (destination memory of j).
        for e in edges:
            i, j = e
            fij = graph.size(i, j)
            lhs = {}
            const = fij  # the arriving copy itself
            for f in edges:
                if f == e:
                    continue
                k, p = f
                fkp = graph.size(k, p)
                if fkp == 0.0:
                    continue
                if k == j:
                    # delta_jj = 1: alpha' = mp_ke - dp_fe, emitted linearly.
                    lhs[("mp", k, e)] = lhs.get(("mp", k, e), 0.0) + fkp
                    lhs[("dp", f, e)] = lhs.get(("dp", f, e), 0.0) - fkp
                else:
                    a = add_product(("alphap", f, e), delta_name(j, k),
                                    ("mp", k, e), ("dp", f, e))
                    lhs[a] = lhs.get(a, 0.0) + fkp
                if p == j:
                    lhs[("cp", f, e)] = lhs.get(("cp", f, e), 0.0) + fkp
                    lhs[("sp", p, e)] = lhs.get(("sp", p, e), 0.0) - fkp
                else:
                    bta = add_product(("betap", f, e), delta_name(j, p),
                                      ("cp", f, e), ("sp", p, e))
                    lhs[bta] = lhs.get(bta, 0.0) + fkp
            lhs[("b", j)] = lhs.get(("b", j), 0.0) - (cap_blue - cap_red)
            lhs[delta_name(i, j)] = lhs.get(delta_name(i, j), 0.0) - mmax
            rows.le(lhs, cap_red - const, "c27")

    # ------------------------------------------------------------------
    # strengthening (valid inequalities + tightened bounds)
    # ------------------------------------------------------------------
    es = _earliest_starts(graph)
    tails = _tails(graph)
    col_m = v[("M",)]
    v.lb[col_m] = max(v.lb[col_m], lower_bound(graph, platform))
    for t in tasks:
        col = v[("t", t)]
        v.lb[col] = max(v.lb[col], es[t])
        rows.le({("t", t): 1, ("M",): -1}, -tails[t], "tail")

    # ------------------------------------------------------------------
    # presolve: reachability-implied fixings
    # ------------------------------------------------------------------
    if presolve:
        desc = {t: graph.descendants(t) for t in tasks}

        def wp(a: Task, b: Task) -> bool:
            """a weakly precedes b (a == b or a is an ancestor of b)."""
            return a == b or b in desc[a]

        for a in tasks:
            for b in desc[a]:
                v.fix(("m", a, b), 1.0)
                v.fix(("m", b, a), 0.0)
                v.fix(("sigma", a, b), 1.0)
                v.fix(("sigma", b, a), 0.0)
        for k in tasks:
            for e in edges:
                i, j = e
                if wp(k, i):
                    v.fix(("sp", k, e), 1.0)
                    v.fix(("mp", k, e), 1.0)
                elif wp(j, k):
                    v.fix(("c", e, k), 1.0)
                    v.fix(("d", e, k), 1.0)
                    v.fix(("mp", k, e), 0.0)
                    v.fix(("sp", k, e), 0.0)
        for e in edges:
            for f in edges:
                if e == f:
                    continue
                if wp(e[1], f[0]):  # e's consumer precedes f's producer
                    v.fix(("cp", e, f), 1.0)
                    v.fix(("dp", e, f), 1.0)
                    v.fix(("cp", f, e), 0.0)
                    v.fix(("dp", f, e), 0.0)
        if platform.n_blue == 0:
            for t in tasks:
                v.fix(("b", t), 0.0)
        if platform.n_red == 0:
            for t in tasks:
                v.fix(("b", t), 1.0)

    a_ub, b_ub = rows.matrix()
    c = np.zeros(len(v))
    c[v[("M",)]] = 1.0
    return ILPModel(graph=graph, platform=platform, vars=v, a_ub=a_ub,
                    b_ub=b_ub, c=c, tasks=tasks, edges=edges, mmax=mmax,
                    labels=rows.labels())
