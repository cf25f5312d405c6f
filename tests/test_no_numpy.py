"""numpy, scipy and networkx are *optional* dependencies: with them
missing the package must import, every heuristic, an online session
round, the CLI and the service's ``/schedule`` and ``/jobs`` must run,
and numpy-only features must fail with pointed errors.
Run in a subprocess whose meta_path blocks the three, so the test is
faithful to a standard-library-only interpreter."""

import json
import os
import subprocess
import sys

import pytest

_SCRIPT = r"""
import sys


BLOCKED = ("numpy", "scipy", "networkx")


def _blocked(name):
    return name.partition(".")[0] in BLOCKED


class _Block:
    def find_module(self, name, path=None):  # pragma: no cover - py<3.12
        return None

    def find_spec(self, name, path=None, target=None):
        if _blocked(name):
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)")
        return None


sys.meta_path.insert(0, _Block())
for mod in list(sys.modules):
    if _blocked(mod):
        del sys.modules[mod]

import json
import repro
from repro import Platform
from repro.core.graph import TaskGraph
from repro.online import OnlineSession
from repro.scheduling.registry import SCHEDULERS
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
for name, fn in SCHEDULERS.items():
    schedule = fn(g, platform)
    repro.validate_schedule(g, platform, schedule)
    makespans[name] = schedule.makespan
out["makespans"] = makespans

session = OnlineSession(platform, policy="replan:2")
session.submit(g, job_id="j0")
session.submit(g, release=1.0, job_id="j1")
out["online"] = [session.flush(), session.makespan]

try:
    from repro.core.bounds import split_work_lower_bound
    split_work_lower_bound(g, Platform(1, 1))
    out["lp_bound_error"] = None
except ImportError as exc:
    out["lp_bound_error"] = str(exc)

# lower_bound itself degrades gracefully: LP term skipped, still valid.
out["lower_bound"] = repro.lower_bound(g, Platform(1, 1))

# The CLI imports and round-trips schedule -> validate.
import contextlib
import io
import os
import tempfile
from repro.cli import main
from repro.io.json_io import save_graph
with tempfile.TemporaryDirectory() as tmp, \
        contextlib.redirect_stdout(io.StringIO()):
    graph_path = os.path.join(tmp, "g.json")
    sched_path = os.path.join(tmp, "s.json")
    save_graph(g, graph_path)
    out["cli"] = [
        main(["schedule", graph_path, "--algo", "memheft", "--mem-blue", "50",
              "--mem-red", "50", "-o", sched_path]),
        main(["validate", graph_path, sched_path])]

# The service answers /schedule and /jobs.
from repro.io.json_io import graph_to_dict, platform_to_dict
from repro.service.app import ServiceApp
app = ServiceApp(workers=1)
wire = {"graph": graph_to_dict(g), "platform": platform_to_dict(platform)}
status, _, body = app.handle(
    "POST", "/schedule", json.dumps(dict(wire, algorithm="memheft")).encode())
out["service_schedule"] = [status, json.loads(body)["makespan"]]
status, _, body = app.handle(
    "POST", "/jobs", json.dumps(dict(wire, session="s")).encode())
reply = json.loads(body)
out["service_jobs"] = [status, reply["state"], reply["makespan"]]

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
    from repro.scheduling.registry import SCHEDULERS

    ms = no_numpy_result["makespans"]
    assert set(ms) == set(SCHEDULERS)
    assert all(v > 0 for v in ms.values())


def test_scalar_fallback_matches_numpy_interpreter(no_numpy_result):
    """The numpy-less subprocess must produce the *same* makespans as this
    interpreter (which has numpy): the fallback is bit-identical, not just
    functional."""
    from repro import Platform
    from repro.core.graph import TaskGraph
    from repro.scheduling.registry import SCHEDULERS

    g = TaskGraph("fallback")
    g.add_task("a", w_blue=2.0, w_red=3.0)
    g.add_task("b", w_blue=1.0, w_red=1.0)
    g.add_task("c", w_blue=3.0, w_red=2.0)
    g.add_dependency("a", "b", size=1.0, comm=2.0)
    g.add_dependency("a", "c", size=2.0, comm=1.0)
    platform = Platform(2, 1, 50.0, 50.0)
    here = {name: fn(g, platform).makespan
            for name, fn in SCHEDULERS.items()}
    assert no_numpy_result["makespans"] == here


def test_online_round_runs(no_numpy_result):
    planned, makespan = no_numpy_result["online"]
    assert planned == ["j0", "j1"]
    assert makespan > 0


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


def test_cli_schedules_and_validates(no_numpy_result):
    assert no_numpy_result["cli"] == [0, 0]


def test_service_schedules_without_numpy(no_numpy_result):
    status, makespan = no_numpy_result["service_schedule"]
    assert status == 200
    assert makespan == no_numpy_result["makespans"]["memheft"]


def test_service_jobs_without_numpy(no_numpy_result):
    """One job released at 0 is the offline MemHEFT schedule."""
    status, state, makespan = no_numpy_result["service_jobs"]
    assert status == 200
    assert state == "scheduled"
    assert makespan == no_numpy_result["makespans"]["memheft"]
