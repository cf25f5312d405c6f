"""The benchmark harness in ``perfbench/`` imports library names directly,
so a change that deletes or renames one breaks the benchmark without
failing any library test.  Every ``perfbench/*.py`` is parsed (not run)
and each ``from repro… import name`` it contains must still resolve."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _repro_imports() -> list:
    """``(file, module, name)`` per imported name, function-local imports
    included."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                out += [(path.name, node.module, alias.name)
                        for alias in node.names]
    return out


IMPORTS = _repro_imports()


def test_perfbench_imports_are_found():
    assert len(IMPORTS) >= 5


@pytest.mark.parametrize("where, module, name", IMPORTS,
                         ids=[f"{w}:{m}.{n}" for w, m, n in IMPORTS])
def test_perfbench_import_resolves(where, module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        # ``from package import submodule`` needs no attribute yet.
        importlib.import_module(f"{module}.{name}")
