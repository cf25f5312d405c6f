"""Byte pins of whole schedules on inputs the goldens do not reach.

``tests/test_golden_schedules.py`` pins placements only, and only for
integer-valued, two-class, speed-1.0 inputs.  Here every case is a
``random.Random``-built graph with fractional times, fractional edge
sizes and transfer times (a few zero sizes and times among them), on a
platform with k = 1, 2 or 3 memory classes and processors of several
speeds (uniform classes at speeds other than 1.0 and heterogeneous
classes).  Each of MemHEFT, MemMinMin and MemSufferage runs under both
transfer policies, unbounded and bounded at 0.6, 0.8 and 1.0 times
HEFT's per-class peaks.  Every schedule must pass
:func:`~repro.core.validation.validate_schedule` (memory bounds
included), and a case pins the sha256 of the canonical JSON of
``[schedule_to_dict(schedule), schedule.meta["peaks"]]``, or the string
``"infeasible"``, in ``tests/data/schedule_pins.json``.

The graphs need no numpy, so the pins also run on the standard-library
engine (CI's no-numpy leg): both must produce the same bytes.

ROADMAP item 3 (scale-free tolerances in place of the absolute ``EPS``)
is the change expected to move the fractional pins.  When it does, it
must re-record them and say so in ``CHANGES.md``; any other change that
moves a pin has changed a schedule.

Re-record with ``PYTHONPATH=src python tests/scheduling/test_schedule_pins.py``.
"""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import pytest

from repro import (Platform, heft, memheft, memminmin, memsufferage,
                   validate_schedule)
from repro.core.graph import TaskGraph
from repro.io.json_io import canonical_json, schedule_to_dict
from repro.scheduling.state import InfeasibleScheduleError

PINS_PATH = Path(__file__).parent.parent / "data" / "schedule_pins.json"

ALGOS = {"memheft": memheft, "memminmin": memminmin,
         "memsufferage": memsufferage}
POLICIES = ("late", "eager")
#: ``None`` is unbounded; otherwise capacities are this times HEFT's
#: per-class peaks.
BOUNDS = (None, 0.6, 0.8, 1.0)

#: Per k: ``(processors per class, processor speeds, graph seed)``.
PLATFORMS = {
    1: ([3], [1.0, 0.7, 1.3], 101),
    2: ([2, 2], [1.0, 1.0, 1.5, 0.8], 202),
    3: ([2, 1, 2], [1.25, 1.25, 2.0, 0.5, 1.0], 303),
}
N_TASKS = 40


def _graph(k: int, seed: int) -> TaskGraph:
    """A random DAG on ``N_TASKS`` tasks whose parents lie among the ten
    tasks before it; every weight is drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    g = TaskGraph(f"pins-k{k}", n_classes=k)
    for v in range(N_TASKS):
        g.add_task(v, times=[0.0 if rng.random() < 0.05
                             else rng.uniform(0.5, 12.0) for _ in range(k)])
    for v in range(1, N_TASKS):
        lo = max(0, v - 10)
        for u in sorted(rng.sample(range(lo, v), rng.randint(0, min(3, v - lo)))):
            size = 0.0 if rng.random() < 0.1 else rng.uniform(0.25, 8.0)
            g.add_dependency(u, v, size=size, comm=rng.uniform(0.1, 4.0))
    return g


def _digest(schedule) -> str:
    payload = [schedule_to_dict(schedule), schedule.meta["peaks"]]
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _cases():
    """``{case id: thunk returning the pinned value}``, in a fixed order."""
    cases = {}
    for k, (counts, speeds, seed) in PLATFORMS.items():
        graph = _graph(k, seed)
        unbounded = Platform(counts, [math.inf] * k, speeds=speeds)
        peaks = heft(graph, unbounded).meta["peaks"]
        for bound in BOUNDS:
            platform = (unbounded if bound is None else
                        unbounded.with_capacities([bound * p for p in peaks]))
            label = "inf" if bound is None else f"{bound}x"
            for name, algo in ALGOS.items():
                for policy in POLICIES:
                    cases[f"k{k}-{label}-{name}-{policy}"] = (
                        lambda g=graph, pf=platform, a=algo, cp=policy:
                        _run(a, g, pf, cp))
    return cases


def _run(algo, graph, platform, policy) -> str:
    try:
        schedule = algo(graph, platform, comm_policy=policy)
    except InfeasibleScheduleError:
        return "infeasible"
    validate_schedule(graph, platform, schedule)
    return _digest(schedule)


CASES = _cases()


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_every_case_is_pinned():
    assert sorted(_pins()) == sorted(CASES)


def test_pins_cover_both_verdicts():
    values = list(_pins().values())
    assert "infeasible" in values
    assert sum(v != "infeasible" for v in values) > len(values) // 2


@pytest.mark.parametrize("case", sorted(CASES))
def test_schedule_matches_pin(case):
    assert CASES[case]() == _pins()[case]


if __name__ == "__main__":  # re-record the pins
    PINS_PATH.write_text(json.dumps(
        {name: build() for name, build in CASES.items()}, indent=1) + "\n")
    print(f"wrote {len(CASES)} pins to {PINS_PATH}", file=sys.stderr)
