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

Tests reach a reference the way each heuristic builds its selector: by
patching the selector name in the heuristic's module.
"""

import importlib
import math
from contextlib import contextmanager

import pytest

from repro.scheduling.candidates import ScanSelector, min_eft

# The package re-exports the functions under the modules' names, so fetch
# the modules themselves.
_memheft_mod = importlib.import_module("repro.scheduling.memheft")
_memminmin_mod = importlib.import_module("repro.scheduling.memminmin")
_sufferage_mod = importlib.import_module("repro.scheduling.sufferage")


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


def _scan_min_eft(state, order):
    return ScanSelector(state, order, min_eft)


@contextmanager
def scan_reference():
    """Within the block, :func:`memminmin` selects by rescanning."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_memminmin_mod, "MinEFTSelector", _scan_min_eft)
        yield


def memminmin_scan(graph, platform, **kwargs):
    """:func:`memminmin` through the rescan reference."""
    with scan_reference():
        return _memminmin_mod.memminmin(graph, platform, **kwargs)


def _sorted_scan(module, name, rule=None):
    """``name`` run through :class:`SortedScanSelector`, with ``rule`` in
    place of the module's own when given."""
    def selector(state, order, own_rule):
        return SortedScanSelector(state, order, rule or own_rule)

    def run(graph, platform, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "ScanSelector", selector)
            return getattr(module, name)(graph, platform, **kwargs)
    run.__name__ = f"{name}_sorted_scan"
    return run


#: :func:`memheft` and :func:`memsufferage` through :class:`SortedScanSelector`
#: (MemSufferage with :func:`sorted_sufferage`).
memheft_sorted_scan = _sorted_scan(_memheft_mod, "memheft")
memsufferage_sorted_scan = _sorted_scan(_sufferage_mod, "memsufferage",
                                        sorted_sufferage)

#: Each heuristic's name and the run of its reference selection.
REFERENCES = {"memheft": memheft_sorted_scan,
              "memminmin": memminmin_scan,
              "memsufferage": memsufferage_sorted_scan}


def reference(fn):
    """The reference run of heuristic ``fn``."""
    return REFERENCES[fn.__name__]
