"""The public surface of the sweep engine, the JSON codec, the service
client and app, the schedule cache and the CLI, pinned.

Sweeps run serially or on a local process pool; the multi-host sweep
stack (host executor, cell endpoint and wire codec, resumable cell
journal, fault injector) was removed outright, as were the feasibility
frontier search and the service cache's on-disk journal (``--cache-dir``
and its CRC line codec).  These checks fail if any of it comes back as a
module, a name, a parameter or an option — or if something is added
without updating the list on purpose.
"""

import argparse
import inspect
import pkgutil

import pytest

import repro
import repro.experiments
from repro.cli import build_parser
from repro.experiments import engine
from repro.io import json_io
from repro.service.app import ScheduleCache, ServiceApp
from repro.service.client import ServiceClient


def _submodules(package):
    return sorted(m.name for m in pkgutil.iter_modules(package.__path__))


def _defined_here(module):
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_")
                  and getattr(value, "__module__", None) == module.__name__)


def test_top_level_modules():
    assert _submodules(repro) == [
        "__main__", "_util", "cli", "core", "dags", "experiments", "ilp",
        "io", "obs", "online", "scheduling", "service"]


def test_experiments_modules():
    assert _submodules(repro.experiments) == [
        "ablation", "config", "engine", "figures", "metrics", "report",
        "sweep"]


def test_engine_surface():
    assert _defined_here(engine) == [
        "cached_reference", "cell_seed", "default_chunk_size", "map_cells",
        "resolve_jobs"]


def test_map_cells_has_exactly_two_modes():
    params = inspect.signature(engine.map_cells).parameters
    assert list(params) == ["worker", "payload", "cells", "jobs"]
    assert params["jobs"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["jobs"].default == 1


def test_experiments_reexports_resolve():
    for name in repro.experiments.__all__:
        assert hasattr(repro.experiments, name), name
    engine_names = {n for n in repro.experiments.__all__
                    if getattr(getattr(repro.experiments, n), "__module__",
                               None) == engine.__name__}
    assert engine_names == {
        "cached_reference", "cell_seed", "map_cells", "resolve_jobs"}


def test_json_codec_surface():
    public = sorted(
        name for name, value in vars(json_io).items()
        if not name.startswith("_")
        and (getattr(value, "__module__", None) == json_io.__name__
             or name.isupper()))
    assert public == [
        "DIGEST_SCHEMA_VERSION", "MAX_PROCESSORS", "canonical_digest",
        "canonical_json",
        "graph_from_dict", "graph_to_dict", "load_graph", "load_schedule",
        "platform_from_dict", "platform_to_dict", "save_graph",
        "save_schedule", "schedule_from_dict", "schedule_to_dict"]


def test_client_methods():
    assert sorted(n for n in vars(ServiceClient) if not n.startswith("_")) \
        == ["algorithms", "batch", "close", "get_job", "healthz", "metrics",
            "schedule", "session_info", "submit_job", "wait_until_ready"]


def test_app_methods():
    assert sorted(n for n in vars(ServiceApp) if not n.startswith("_")) \
        == ["close", "handle"]


def test_cache_is_in_memory_only():
    assert sorted(n for n in vars(ScheduleCache) if not n.startswith("_")) \
        == ["get", "put", "stats"]


def _options(command):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(opt for action in sub.choices[command]._actions
                  for opt in action.option_strings)


@pytest.mark.parametrize("command, options", [
    ("experiment", ["--csv", "--help", "--jobs", "--scale", "--trace",
                    "-h", "-j"]),
    ("serve", ["--cache-size", "--help", "--host",
               "--idle-timeout", "--max-connections", "--port",
               "--workers", "-h", "-w"]),
    ("submit", ["--algo", "--blue", "--comm-policy", "--help", "--host",
                "--mem-blue", "--mem-red", "--mems", "--output", "--port",
                "--procs", "--red", "--speeds", "--timeout", "--trace",
                "--wait", "-h", "-o"]),
])
def test_cli_options(command, options):
    assert _options(command) == options
