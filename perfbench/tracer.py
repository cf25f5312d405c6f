"""Outside-in layer tracer: wraps public functions at each layer boundary.

The program is not edited.  Each patch point names a function or method
*where it is looked up* (``repro.scheduling.memheft:rank_order`` patches the
name ``memheft`` calls, not the definition in ``ranks``).  While an
op is open, every wrapped call becomes a span; a span's self time is its
duration minus the time of its child spans, and is added to its layer as the
span closes, so memory stays bounded however many calls an op makes.  A
nested call into the layer already open is part of that span (counted once).

Spans are kept in memory as one row per op (wall time plus the self time of
each layer inside it) and written out when the run ends.

Later changes may delete or rename a patch point.  A missing one prints a
warning and leaves its layer at ``calls=0``; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: The op's own span: code inside the op that no patched layer covers.
ROOT = "other"

#: ``(layer, patch point)``.  A patch point is ``module:attr[.attr]`` or
#: ``module:DICT[key]``.  Layers in this table are the ones the per-layer
#: metrics report; see README.md for which end-to-end metric each moves.
PATCH_POINTS = [
    # scheduling.ranks
    ("rank", "repro.scheduling.memheft:rank_order"),
    ("rank", "repro.online.session:rank_order"),
    ("rank", "repro.scheduling.ranks:upward_ranks"),
    # scheduling.state set-up
    ("state_init", "repro.scheduling.state:SchedulerState.__init__"),
    ("state_init", "repro.core.graph:TaskGraph.flatten"),
    # scheduling.candidates
    ("select", "repro.scheduling.candidates:MinEFTSelector.select"),
    ("select", "repro.scheduling.candidates:RankSelector.select"),
    ("select", "repro.scheduling.candidates:SufferageSelector.select"),
    # scheduling.kernel and the state's EST entry points
    ("est", "repro.scheduling.state:SchedulerState.est"),
    ("est", "repro.scheduling.state:SchedulerState.best_est"),
    ("est", "repro.scheduling.kernel:ScalarKernel.evaluate"),
    ("est", "repro.scheduling.kernel:ScalarKernel.evaluate_fresh"),
    ("est", "repro.scheduling.kernel:ScalarKernel.evaluate_class_batch"),
    ("est", "repro.scheduling.kernel:ScalarKernel.best_est_batch"),
    ("est", "repro.scheduling.kernel:NumpyKernel.evaluate_class_batch"),
    ("est", "repro.scheduling.kernel:NumpyKernel.best_est_batch"),
    ("est", "repro.scheduling.kernel:CompiledKernel.evaluate_class_batch"),
    ("est", "repro.scheduling.kernel:CompiledKernel.best_est_batch"),
    # core.memory_profile queries
    ("fit", "repro.core.memory_profile:MemoryProfile.earliest_fit"),
    ("fit", "repro.core.memory_profile:MemoryProfile.used_at"),
    ("fit", "repro.core.memory_profile:MemoryProfile.free_at"),
    ("fit", "repro.core.memory_profile:MemoryProfile.peak"),
    ("fit", "repro.core.memory_profile:MemoryProfile.peak_in"),
    # core.memory_profile mutators
    ("commit.profile", "repro.core.memory_profile:MemoryProfile.add"),
    ("commit.profile", "repro.core.memory_profile:MemoryProfile.add_batch"),
    ("commit.profile", "repro.core.memory_profile:MemoryProfile.release_from"),
    ("commit.profile", "repro.core.memory_profile:MemoryProfile.compact"),
    # SchedulerState.commit minus the profile, and finalize
    ("commit", "repro.scheduling.state:SchedulerState.commit"),
    ("finalize", "repro.scheduling.state:SchedulerState.finalize"),
    # the select -> commit loops
    ("loop", "repro.scheduling.registry:SCHEDULERS[memheft]"),
    ("loop", "repro.scheduling.registry:SCHEDULERS[memminmin]"),
    ("loop", "repro.scheduling.registry:SCHEDULERS[memsufferage]"),
    ("loop", "repro.online.session:OnlineSession._drive"),
    # core.validation, as the service calls it
    ("validate", "repro.service.app:validate_schedule"),
    # service.app
    ("service.other", "repro.service.app:ServiceApp.handle"),
    ("service.parse", "repro.service.app:ServiceApp._parse_body"),
    ("service.parse", "repro.service.app:parse_request"),
    ("service.digest", "repro.service.app:request_digest"),
    ("service.cache", "repro.service.app:ScheduleCache.get"),
    ("service.cache", "repro.service.app:ScheduleCache.put"),
    ("service.decode", "repro.service.app:graph_from_dict"),
    ("service.decode", "repro.service.app:platform_from_dict"),
    ("service.serialize", "repro.service.app:schedule_to_dict"),
    ("service.serialize", "repro.service.app:canonical_json"),
    ("service.jobs", "repro.service.app:ServiceApp._handle_jobs"),
    # online.session
    ("online.session", "repro.online.session:OnlineSession.poll"),
    ("online.union_build", "repro.online.session:build_union_graph"),
    ("online.replay", "repro.online.session:OnlineSession._replan_round"),
]

#: Layers whose calls made directly inside an open span of the key layer
#: belong to that span.  A re-planning round replays its kept log through
#: ``SchedulerState.commit``; those commits are replay work, not decisions.
CAPTURES = {"online.replay": frozenset({"commit", "commit.profile"})}

def _resolve(point: str):
    """``(container, key, original)`` for a patch point; raises
    ``LookupError`` when any part of it no longer exists."""
    module_name, _, path = point.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"module {module_name} not importable: {exc}")
    if path.endswith("]"):
        name, _, key = path[:-1].partition("[")
        container = getattr(obj, name, None)
        if not isinstance(container, dict) or key not in container:
            raise LookupError(f"{point} not found")
        return container, key, container[key]
    *owners, attr = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner, None)
        if obj is None:
            raise LookupError(f"{point} not found")
    if isinstance(obj, type):
        if attr not in vars(obj):
            if hasattr(obj, attr):   # inherited: the base class is patched
                return None
            raise LookupError(f"{point} not found")
        return obj, attr, vars(obj)[attr]
    if not hasattr(obj, attr):
        raise LookupError(f"{point} not found")
    return obj, attr, getattr(obj, attr)


class Tracer:
    """Per-layer self time and call counts, recorded only inside ops."""

    def __init__(self, points=PATCH_POINTS, captures=CAPTURES,
                 warn=None) -> None:
        self.points = list(points)
        self.captures = captures
        self.warn = warn or (lambda msg: print(msg, file=sys.stderr))
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.ops: list = []
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []

    # -- patching --------------------------------------------------------
    def install(self) -> "Tracer":
        for layer, point in self.points:
            try:
                found = _resolve(point)
            except LookupError as exc:
                self.missing.append(point)
                self.warn(f"perfbench: patch point missing, layer {layer!r} "
                          f"reports calls=0: {exc}")
                continue
            if found is None:
                continue
            container, key, original = found
            wrapped = self._wrap_any(original, layer)
            self._set(container, key, wrapped)
            self._patched.append((container, key, original))
        return self

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            self._set(container, key, original)
        self._patched.clear()

    @staticmethod
    def _set(container, key, value) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def _wrap_any(self, original, layer: str):
        if isinstance(original, staticmethod):
            return staticmethod(self.wrap(original.__func__, layer))
        return self.wrap(original, layer)

    def wrap(self, fn, layer: str):
        """``fn`` timed as one span of ``layer`` while an op is open."""
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        captured_by = {outer for outer, inner in self.captures.items()
                       if layer in inner}
        on_exit = _ON_EXIT.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            top = stack[-1]
            if top[0] == layer:
                return fn(*args, **kwargs)
            if top[0] in captured_by:
                if layer == "commit":
                    self.counts[top[0] + ".commits"] += 1
                    self.counts["online.commits"] += 1
                return fn(*args, **kwargs)
            span = [layer, 0.0]
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - span[1]
                stack[-1][1] += dt
                calls[layer] += 1
            if on_exit is not None:
                on_exit(self, fn, args, result)
            return result

        return traced

    # -- ops -------------------------------------------------------------
    def begin_op(self) -> None:
        self._before = dict(self.self_s)
        self._stack.append([ROOT, 0.0])
        self._t0 = perf_counter()

    def end_op(self, label: str) -> float:
        wall = perf_counter() - self._t0
        root = self._stack.pop()
        self.self_s[ROOT] += wall - root[1]
        self.calls[ROOT] += 1
        before = self._before
        self.ops.append({
            "op": len(self.ops), "label": label, "wall_s": wall,
            "self_s": {k: v - before.get(k, 0.0)
                       for k, v in self.self_s.items()
                       if v != before.get(k, 0.0)},
        })
        return wall

    def write(self, path) -> None:
        """Write the per-op span rows, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.ops:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _count_est_batch(tracer: Tracer, fn, args, result) -> None:
    if fn.__name__ in ("evaluate_class_batch", "best_est_batch"):
        tracer.counts["est.batch_calls"] += 1


def _count_commit(tracer: Tracer, fn, args, result) -> None:
    if any(span[0] == "online.session" for span in tracer._stack):
        tracer.counts["online.commits"] += 1


def _count_cache(tracer: Tracer, fn, args, result) -> None:
    if fn.__name__ == "get":
        tracer.counts["cache.gets"] += 1
        tracer.counts["cache.hits"] += result is not None


def _count_segments(tracer: Tracer, fn, args, result) -> None:
    profiles = getattr(args[0], "mem", None)
    try:
        segments = sum(p.n_segments() for p in profiles.values())
    except AttributeError:
        return
    tracer.counts["finalize.calls"] += 1
    tracer.counts["profile.segments"] += segments


_ON_EXIT = {
    "est": _count_est_batch,
    "commit": _count_commit,
    "service.cache": _count_cache,
    "finalize": _count_segments,
}


RATIO_METRICS = frozenset({"est.per_commit", "online.commits_per_arrival",
                           "service.cache.hit_frac", "trace.accounted_frac"})


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIO_METRICS else "count"


def layer_metrics(tracer: Tracer, arrivals: int = 0,
                  untraced_s: float = 0.0) -> dict:
    """The per-layer metrics (name -> value) of a traced run.

    ``arrivals`` is the number of online jobs submitted in the traced ops;
    ``untraced_s`` the op time of the same op list run untraced.
    """
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    commits = c["commit"]
    m = {
        "rank.self_s": s["rank"], "rank.calls": c["rank"],
        "state_init.self_s": s["state_init"],
        "select.self_s": s["select"], "select.calls": c["select"],
        "est.self_s": s["est"], "est.calls": c["est"],
        "est.batch_calls": n["est.batch_calls"],
        "est.per_commit": c["est"] / commits if commits else 0.0,
        "fit.self_s": s["fit"], "fit.calls": c["fit"],
        "commit.profile.self_s": s["commit.profile"],
        "commit.profile.calls": c["commit.profile"],
        "profile.segments": (n["profile.segments"] / n["finalize.calls"]
                             if n["finalize.calls"] else 0.0),
        "commit.self_s": s["commit"], "commit.calls": commits,
        "finalize.self_s": s["finalize"],
        "validate.self_s": s["validate"],
        "loop.self_s": s["loop"],
        "other.self_s": s[ROOT],
        "online.session.self_s": s["online.session"],
        "online.union_build.self_s": s["online.union_build"],
        "online.replay.self_s": s["online.replay"],
        "online.replay.commits": n["online.replay.commits"],
        "online.commits_per_arrival": (n["online.commits"] / arrivals
                                       if arrivals else 0.0),
        "service.cache.hit_frac": (n["cache.hits"] / n["cache.gets"]
                                   if n["cache.gets"] else 0.0),
    }
    for layer in ("parse", "digest", "cache", "decode", "serialize", "jobs",
                  "other"):
        m[f"service.{layer}.self_s"] = s[f"service.{layer}"]
    traced_s = sum(op["wall_s"] for op in tracer.ops)
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.accounted_frac"] = sum(s.values()) / traced_s if traced_s else 0.0
    return m
