"""numpy is an *optional* dependency: with it missing the package must
import, every heuristic must run, and numpy-only
features must fail with pointed errors.  Run in a subprocess whose meta_path
blocks numpy, so the test is faithful to a real numpy-less interpreter."""

import json
import os
import subprocess
import sys

import pytest

_SCRIPT = r"""
import sys


class _Block:
    def find_module(self, name, path=None):  # pragma: no cover - py<3.12
        return None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError("No module named 'numpy' (blocked)")
        return None


sys.meta_path.insert(0, _Block())
for mod in list(sys.modules):
    if mod == "numpy" or mod.startswith("numpy."):
        del sys.modules[mod]

import json
import repro
from repro import Platform
from repro.core.graph import TaskGraph
from repro.scheduling.heft import heft
from repro.scheduling.memheft import memheft
from repro.scheduling.memminmin import memminmin
from repro.scheduling.sufferage import memsufferage
from repro.scheduling.kernel import resolve_backend

out = {}
out["has_numpy"] = __import__("repro._util", fromlist=["x"]).HAS_NUMPY
out["kernel"] = resolve_backend().name

g = TaskGraph("fallback")
g.add_task("a", w_blue=2.0, w_red=3.0)
g.add_task("b", w_blue=1.0, w_red=1.0)
g.add_task("c", w_blue=3.0, w_red=2.0)
g.add_dependency("a", "b", size=1.0, comm=2.0)
g.add_dependency("a", "c", size=2.0, comm=1.0)
platform = Platform(2, 1, 50.0, 50.0)

makespans = {}
for name, fn in (("heft", heft), ("memheft", memheft),
                 ("memminmin", memminmin), ("memsufferage", memsufferage)):
    schedule = fn(g, platform)
    repro.validate_schedule(g, platform, schedule)
    makespans[name] = schedule.makespan
out["makespans"] = makespans

try:
    from repro.core.bounds import split_work_lower_bound
    split_work_lower_bound(g, Platform(1, 1))
    out["lp_bound_error"] = None
except ImportError as exc:
    out["lp_bound_error"] = str(exc)

# lower_bound itself degrades gracefully: LP term skipped, still valid.
out["lower_bound"] = repro.lower_bound(g, Platform(1, 1))

print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def no_numpy_result():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", _SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_imports_without_numpy(no_numpy_result):
    assert no_numpy_result["has_numpy"] is False


def test_only_scalar_backend_available(no_numpy_result):
    assert no_numpy_result["kernel"] == "scalar"


def test_heuristics_run_on_scalar_fallback(no_numpy_result):
    ms = no_numpy_result["makespans"]
    assert set(ms) == {"heft", "memheft", "memminmin", "memsufferage"}
    assert all(v > 0 for v in ms.values())


def test_scalar_fallback_matches_numpy_interpreter(no_numpy_result):
    """The numpy-less subprocess must produce the *same* makespans as this
    interpreter (which has numpy): the fallback is bit-identical, not just
    functional."""
    from repro import Platform
    from repro.core.graph import TaskGraph
    from repro.scheduling.heft import heft
    from repro.scheduling.memheft import memheft
    from repro.scheduling.memminmin import memminmin
    from repro.scheduling.sufferage import memsufferage

    g = TaskGraph("fallback")
    g.add_task("a", w_blue=2.0, w_red=3.0)
    g.add_task("b", w_blue=1.0, w_red=1.0)
    g.add_task("c", w_blue=3.0, w_red=2.0)
    g.add_dependency("a", "b", size=1.0, comm=2.0)
    g.add_dependency("a", "c", size=2.0, comm=1.0)
    platform = Platform(2, 1, 50.0, 50.0)
    here = {"heft": heft(g, platform).makespan,
            "memheft": memheft(g, platform).makespan,
            "memminmin": memminmin(g, platform).makespan,
            "memsufferage": memsufferage(g, platform).makespan}
    assert no_numpy_result["makespans"] == here


def test_lp_bound_raises_importerror(no_numpy_result):
    msg = no_numpy_result["lp_bound_error"]
    assert msg is not None
    assert "numpy" in msg


def test_lower_bound_degrades_to_valid_bound(no_numpy_result):
    """Without the LP term ``lower_bound`` still returns a positive bound
    never exceeding the full (LP-included) bound this interpreter computes."""
    from repro import Platform, lower_bound
    from repro.core.graph import TaskGraph

    g = TaskGraph("fallback")
    g.add_task("a", w_blue=2.0, w_red=3.0)
    g.add_task("b", w_blue=1.0, w_red=1.0)
    g.add_task("c", w_blue=3.0, w_red=2.0)
    g.add_dependency("a", "b", size=1.0, comm=2.0)
    g.add_dependency("a", "c", size=2.0, comm=1.0)
    full = lower_bound(g, Platform(1, 1))
    degraded = no_numpy_result["lower_bound"]
    assert 0 < degraded <= full + 1e-9
