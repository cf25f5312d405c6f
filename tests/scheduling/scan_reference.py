"""Reference selections the library's selectors are checked against.

* MemMinMin's reference is the ordered rescan
  ``ScanSelector(state, order, min_eft)`` that :class:`MinEFTSelector`
  must match decision for decision.
* MemHEFT's and MemSufferage's reference is :class:`SortedScanSelector`:
  the rule applied to the ready set sorted afresh on every step, so the
  ordered ready list :class:`ScanSelector` keeps by bisect is checked
  against the plainest way of producing that order.  MemSufferage's
  reference rule is :func:`sorted_sufferage`, which sorts each task's
  feasible breakdowns instead of keeping the two smallest EFTs in one pass
  as :func:`~repro.scheduling.candidates.max_sufferage` does.

Offline runs and online planning rounds build their selector from one
table, :data:`repro.scheduling.driver.SELECTORS`.  :func:`references`
swaps that table's entries for the references, so the same patch reaches
``memheft``/``memminmin``/``memsufferage`` and every ``OnlineSession``
round, and counts the reference selectors it builds.
"""

import importlib
import math
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.scheduling.candidates import ScanSelector, first_fit, min_eft
from repro.scheduling.registry import SCHEDULERS

# The package re-exports functions under module names, so fetch the
# module itself.
_driver = importlib.import_module("repro.scheduling.driver")


class SortedScanSelector:
    """Apply ``rule`` to every ready task, sorted by ``order`` on each
    :meth:`select`; the ready tasks are kept as an unordered set."""

    def __init__(self, state, order, rule):
        self.state = state
        self.order = order
        self.rule = rule
        self._ready = set()

    def __len__(self):
        return len(self._ready)

    def push(self, task):
        self._ready.add(task)

    def remove(self, task):
        self._ready.discard(task)

    def select(self):
        return self.rule(self.state,
                         sorted(self._ready, key=self.order.__getitem__))


def sorted_sufferage(state, tasks):
    """MemSufferage's rule by sorting: per task, the feasible breakdowns
    sorted by EFT (stable, so equal EFTs stay in class order); the
    largest gap between the first two wins (infinite when only one class
    fits), ties towards the smaller EFT, then the earlier task."""
    best_choice = None
    best_key = None
    for tie, task in enumerate(tasks):
        breakdowns = [state.est(task, m) for m in state.memories]
        feasible = [bd for bd in breakdowns if bd.feasible]
        if not feasible:
            continue
        feasible.sort(key=lambda bd: bd.eft)
        preferred = feasible[0]
        if len(feasible) >= 2:
            sufferage = feasible[1].eft - feasible[0].eft
        else:
            sufferage = math.inf
        key = (-sufferage, preferred.eft, tie)
        if best_key is None or key < best_key:
            best_key = key
            best_choice = preferred
    return best_choice


#: Each heuristic's reference selector, called as ``(state, order)``
#: like the entries of :data:`repro.scheduling.driver.SELECTORS`.
REFERENCE_SELECTORS = {
    "memheft": lambda state, order: SortedScanSelector(state, order,
                                                       first_fit),
    "memminmin": lambda state, order: ScanSelector(state, order, min_eft),
    "memsufferage": lambda state, order: SortedScanSelector(
        state, order, sorted_sufferage),
}


@contextmanager
def references(names=tuple(REFERENCE_SELECTORS)):
    """Within the block the named heuristics select through their
    references, offline and online alike.  Yields a :class:`Counter` of
    the reference selectors built, per heuristic."""
    built = Counter()

    def counted(name):
        make = REFERENCE_SELECTORS[name]

        def build(state, order):
            built[name] += 1
            return make(state, order)
        return build

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setitem(_driver.SELECTORS, name, counted(name))
        yield built


def _reference_run(name):
    """The offline heuristic ``name`` run through its reference."""
    def run(graph, platform, **kwargs):
        with references((name,)) as built:
            schedule = SCHEDULERS[name](graph, platform, **kwargs)
        assert built[name] == 1
        return schedule
    run.__name__ = f"{name}_reference"
    return run


#: Each heuristic's name and the run of its reference selection.
REFERENCES = {name: _reference_run(name) for name in REFERENCE_SELECTORS}
memheft_sorted_scan = REFERENCES["memheft"]


def reference(fn):
    """The reference run of heuristic ``fn``."""
    return REFERENCES[fn.__name__]
