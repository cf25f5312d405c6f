"""Import contract: numpy and scipy load at their first use, never with
the package.  Importing ``repro``, the CLI, online sessions or the
service loads neither; the LP bound and the ILP load scipy on demand and
give the same numbers as before.  Each check runs in a fresh
interpreter (numpy and scipy installed), since this one has long
imported both."""

import json
import os
import subprocess
import sys

import pytest

pytest.importorskip("scipy")

_PRELUDE = r"""
import json
import sys


def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)
"""


def run_script(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + body],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_entry_points_load_neither_numpy_nor_scipy():
    out = run_script(r"""
import repro
import repro.cli
import repro.online
import repro.service.app
import repro.service.server
print(json.dumps({"loaded": loaded()}))
""")
    assert out["loaded"] == []


def test_lower_bound_loads_scipy_for_its_lp_term():
    out = run_script(r"""
from repro import Platform, lower_bound
from repro.dags import lu_dag
before = loaded()
value = lower_bound(lu_dag(4), Platform(2, 1))
print(json.dumps({"before": before, "value": value, "after": loaded()}))
""")
    assert out["before"] == []
    # The LP split-work term (3267.14...) is the binding one here: the
    # critical path gives 1929 and the work bound 1704.67.
    assert out["value"] == 3267.1428571428573
    assert out["after"] == ["numpy", "scipy"]


def test_cli_bounds_and_ilp_load_scipy_on_demand(tmp_path):
    out = run_script(r"""
import contextlib
import io
from repro.cli import main
from repro.dags.toy import dex
from repro.io.json_io import save_graph

path = %r
save_graph(dex(), path)
out = {"imported": loaded()}
for name, argv in (("bounds", ["bounds", path, "--blue", "2", "--red", "1"]),
                   ("ilp", ["ilp", path, "--mem-blue", "5",
                            "--mem-red", "5"])):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    out[name] = [rc, buf.getvalue().splitlines(), loaded()]
print(json.dumps(out))
""" % str(tmp_path / "dex.json"))
    assert out["imported"] == []
    assert out["bounds"] == [0, ["critical path : 5",
                                 "work          : 2.33333",
                                 "split work    : 2.75",
                                 "lower bound   : 5"], ["numpy", "scipy"]]
    rc, lines, after = out["ilp"]
    assert rc == 0
    assert lines[:3] == ["status      : optimal",
                         "makespan    : 6.0",
                         "lower bound : 6"]
    assert after == ["numpy", "scipy"]

