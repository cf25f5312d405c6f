"""The per-layer tracer in ``perfbench/tracer.py`` monkeypatches library
names listed in its ``PATCH_POINTS``.  A point that no longer resolves is
only warned about at ``--trace 1`` and its layer silently reports zero
calls, so a rename or deletion in the library can blank a layer unseen.
``PATCH_POINTS`` is parsed (the tracer is not imported) and every point
must resolve the way the tracer resolves it, except the ones already
known to be stale."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: Points whose library names were deleted before this guard existed
#: (ROADMAP open item 1 drops them from the tracer).
KNOWN_STALE = frozenset({
    "repro.scheduling.candidates:RankSelector.select",
    "repro.scheduling.candidates:SufferageSelector.select",
    "repro.scheduling.kernel:ScalarKernel.evaluate_fresh",
    "repro.scheduling.kernel:ScalarKernel.evaluate_class_batch",
    "repro.scheduling.kernel:ScalarKernel.best_est_batch",
    "repro.scheduling.kernel:NumpyKernel.evaluate_class_batch",
    "repro.scheduling.kernel:NumpyKernel.best_est_batch",
    "repro.scheduling.kernel:CompiledKernel.evaluate_class_batch",
    "repro.scheduling.kernel:CompiledKernel.best_est_batch",
    "repro.core.memory_profile:MemoryProfile.add_batch",
})


def _patch_points() -> list:
    """``(layer, point)`` pairs of the tracer's ``PATCH_POINTS``."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "PATCH_POINTS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCH_POINTS assignment in {TRACER}")


def _resolves(point: str) -> bool:
    """Whether ``module:attr[.attr]`` or ``module:DICT[key]`` names an
    existing object (an inherited method counts, as in the tracer)."""
    module_name, _, path = point.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return False
    if path.endswith("]"):
        name, _, key = path[:-1].partition("[")
        container = getattr(obj, name, None)
        return isinstance(container, dict) and key in container
    *owners, attr = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner, None)
        if obj is None:
            return False
    return hasattr(obj, attr)


POINTS = _patch_points()


def test_patch_points_are_found():
    assert len(POINTS) >= 20


@pytest.mark.parametrize("layer, point",
                         [lp for lp in POINTS if lp[1] not in KNOWN_STALE],
                         ids=[p for _, p in POINTS if p not in KNOWN_STALE])
def test_patch_point_resolves(layer, point):
    assert _resolves(point), (
        f"perfbench patch point {point} (layer {layer!r}) no longer "
        f"resolves; the traced benchmark would report that layer empty")
