"""JSON (de)serialisation for graphs, platforms and schedules.

Task identifiers are arbitrary hashables in memory; JSON round-tripping
stringifies non-(str/int) tasks, so linear-algebra tuple ids survive as
their ``repr`` strings (documented, stable).

Dual-memory (k = 2) objects keep the historical layout (``w_blue``/
``w_red``, ``n_blue``/``n_red``/``mem_blue``/``mem_red``) so serialized
graphs, platforms and schedules from earlier versions load unchanged;
k-memory objects use the generic ``times`` / ``proc_counts`` /
``capacities`` fields.  Memories serialize as their canonical names
(``"blue"``, ``"red"``, ``"mem2"``, ...).

**Schema v2 — heterogeneous processors.**  A platform with per-processor
``speeds`` serializes them as a ``"speeds"`` array (global processor
order) next to either layout; the key is *omitted entirely* when every
speed is 1.0.  Omission is deliberate: :func:`canonical_digest` hashes
these dicts, so every pre-v2 (homogeneous) payload keeps its exact digest
— content-addressed cache keys never churn across the version bump —
while heterogeneous payloads hash their speed vector.  Readers accept
both layouts with or without ``speeds``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Union

from .._util import atomic_write_text
from ..core.graph import TaskGraph
from ..core.platform import Memory, Platform
from ..core.schedule import CommEvent, Placement, Schedule

PathLike = Union[str, Path]


def _task_key(task: Any) -> Union[str, int]:
    if isinstance(task, (str, int)):
        return task
    return repr(task)


def _cap_out(x: float) -> Union[float, None]:
    return None if math.isinf(x) else x


def _cap_in(x: Union[float, None]) -> float:
    """``null`` is an unbounded capacity; :class:`Platform` converts the
    rest to floats."""
    return math.inf if x is None else x


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def graph_to_dict(graph: TaskGraph) -> dict:
    if graph.n_classes == 2:
        tasks = [
            {"id": _task_key(t), "w_blue": graph.w_blue(t), "w_red": graph.w_red(t)}
            for t in graph.topological_order()
        ]
    else:
        tasks = [
            {"id": _task_key(t), "times": list(graph.times(t))}
            for t in graph.topological_order()
        ]
    return {
        "name": graph.name,
        "n_classes": graph.n_classes,
        "tasks": tasks,
        "edges": [
            {"src": _task_key(u), "dst": _task_key(v),
             "size": graph.size(u, v), "comm": graph.comm(u, v)}
            for u, v in graph.edges()
        ],
    }


def graph_from_dict(data: dict) -> TaskGraph:
    n_classes = data.get("n_classes", 2)
    g = TaskGraph(name=data.get("name", "taskgraph"), n_classes=n_classes)
    # Generators: each row is read just before it is checked, so a
    # malformed row fails as in a loop of add_task/add_dependency calls.
    g.add_tasks((row["id"], row["times"]) if "times" in row
                else (row["id"], (row["w_blue"], row["w_red"]))
                for row in data["tasks"])
    g.add_dependencies((row["src"], row["dst"], row.get("size", 0.0),
                        row.get("comm", 0.0)) for row in data["edges"])
    return g


def save_graph(graph: TaskGraph, path: PathLike) -> None:
    atomic_write_text(path, json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: PathLike) -> TaskGraph:
    return graph_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# platforms
# ----------------------------------------------------------------------
def platform_to_dict(platform: Platform) -> dict:
    if platform.n_classes == 2:
        out = {
            "n_blue": platform.n_blue,
            "n_red": platform.n_red,
            "mem_blue": _cap_out(platform.mem_blue),
            "mem_red": _cap_out(platform.mem_red),
        }
    else:
        out = {
            "proc_counts": list(platform.proc_counts),
            "capacities": [_cap_out(c) for c in platform.capacities],
        }
    # Omitted when homogeneous: pre-v2 payloads — and their canonical
    # digests — stay byte-identical.
    if platform.is_heterogeneous:
        out["speeds"] = list(platform.speeds)
    return out


#: The keys of each platform layout (:func:`platform_to_dict`'s two forms).
_DUAL_KEYS = frozenset({"n_blue", "n_red", "mem_blue", "mem_red", "speeds"})
_KARY_KEYS = frozenset({"proc_counts", "capacities", "speeds"})

#: The most processors, over all classes, that :func:`platform_from_dict`
#: builds.  Far above any platform in the repository (the largest, mirage,
#: has 12 + 3); a payload asking for millions would otherwise spend
#: seconds and gigabytes on per-processor tuples.  :class:`Platform`
#: itself takes any count.
MAX_PROCESSORS = 4096


def platform_from_dict(data: dict) -> Platform:
    """Inverse of :func:`platform_to_dict`.  The form is detected from
    ``proc_counts``; a key outside it raises ``ValueError`` instead of
    being dropped (a stray ``capacities`` on the dual form would
    otherwise leave the platform unbounded), and so do more than
    :data:`MAX_PROCESSORS` processors, before any is built."""
    speeds = data.get("speeds")
    counts = (list(data["proc_counts"]) if "proc_counts" in data
              else [data["n_blue"], data["n_red"]])
    try:
        too_many = sum(counts) > MAX_PROCESSORS
    except TypeError:   # a non-numeric count, which Platform names
        too_many = False
    if too_many:
        raise ValueError(f"a platform may have at most {MAX_PROCESSORS} "
                         f"processors in all")
    if "proc_counts" in data:
        platform = Platform(
            counts,
            [_cap_in(c) for c in data.get("capacities",
                                          [None] * len(counts))],
            speeds=speeds,
        )
        allowed = _KARY_KEYS
    else:
        platform = Platform(
            n_blue=data["n_blue"],
            n_red=data["n_red"],
            mem_blue=_cap_in(data.get("mem_blue")),
            mem_red=_cap_in(data.get("mem_red")),
            speeds=speeds,
        )
        allowed = _DUAL_KEYS
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown platform keys {sorted(unknown)} "
                         f"(this form takes {sorted(allowed)})")
    return platform


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def _jsonable_meta(v: Any) -> bool:
    """Scalar meta entries plus flat scalar lists (e.g. per-class ``peaks``)."""
    if isinstance(v, (str, int, float, bool)):
        return True
    return (isinstance(v, (list, tuple))
            and all(isinstance(x, (str, int, float, bool)) for x in v))


def schedule_to_dict(schedule: Schedule) -> dict:
    return {
        "platform": platform_to_dict(schedule.platform),
        "placements": [
            {"task": _task_key(p.task), "proc": p.proc,
             "memory": p.memory.value, "start": p.start, "finish": p.finish}
            for p in schedule.placements()
        ],
        "comms": [
            {"src": _task_key(ev.src), "dst": _task_key(ev.dst),
             "start": ev.start, "finish": ev.finish}
            for ev in schedule.comms()
        ],
        "meta": {k: v for k, v in schedule.meta.items()
                 if _jsonable_meta(v)},
    }


def schedule_from_dict(data: dict) -> Schedule:
    schedule = Schedule(platform_from_dict(data["platform"]))
    for row in data["placements"]:
        schedule.add(Placement(
            task=row["task"], proc=row["proc"], memory=Memory(row["memory"]),
            start=row["start"], finish=row["finish"],
        ))
    for row in data["comms"]:
        schedule.add_comm(CommEvent(
            src=row["src"], dst=row["dst"],
            start=row["start"], finish=row["finish"],
        ))
    schedule.meta.update(data.get("meta", {}))
    return schedule


def save_schedule(schedule: Schedule, path: PathLike) -> None:
    atomic_write_text(path, json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: PathLike) -> Schedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# canonical serialization / content addressing
# ----------------------------------------------------------------------
#: Digest schema revision.  v2 added the optional per-processor
#: ``speeds`` vector to platform payloads.  The version is *not* hashed:
#: homogeneous payloads serialize identically across v1/v2 (``speeds``
#: omitted when all 1.0), so every pre-existing digest is unchanged.
#: Digests stay pinned (``tests/io/test_digest_stability.py``) because
#: every service response body carries one, and the perfbench goldens
#: hash those bodies.
DIGEST_SCHEMA_VERSION = 2


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering: sorted keys, minimal separators, no
    NaN/Infinity literals (use the ``None``-for-unbounded convention of
    :func:`platform_to_dict` before calling).

    Two structurally equal payloads always render to the same string, across
    processes and Python versions, which makes the output safe to hash.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def canonical_digest(graph: Union[TaskGraph, dict],
                     platform: Union[Platform, dict],
                     algorithm: str,
                     options: Union[dict, None] = None) -> str:
    """Content address of one scheduling problem instance.

    A sha256 hex digest of the canonical JSON form of ``(graph, platform,
    algorithm, options)`` — the key of the :mod:`repro.service` schedule
    cache.  Model objects are converted through :func:`graph_to_dict` /
    :func:`platform_to_dict`, so a :class:`TaskGraph` and its serialized
    dict address the same content; algorithm names are case-folded and
    ``options=None`` equals ``options={}``.

    Schema v2 (:data:`DIGEST_SCHEMA_VERSION`): heterogeneous platforms
    contribute their ``speeds`` vector to the digest; homogeneous payloads
    serialize — and therefore hash — exactly as under v1.
    """
    graph_d = graph_to_dict(graph) if isinstance(graph, TaskGraph) else graph
    platform_d = (platform_to_dict(platform)
                  if isinstance(platform, Platform) else platform)
    payload = canonical_json(
        [graph_d, platform_d, str(algorithm).lower(), options or {}])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
