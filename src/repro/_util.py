"""Small shared helpers (tolerances, RNG coercion).

``numpy`` is an *optional* dependency of the core library: the scheduling
engine is pure Python (the RNG-driven DAG generators, the dataset
builders and the sweep statistics are its only consumers).  It is never
imported here at module load: :data:`HAS_NUMPY` only asks the import
system whether it *could* be imported, and :func:`require_numpy` /
:func:`as_rng` import it on their first call, so ``import repro`` (and
the CLI, the service and online sessions built on it) start without it.
"""

from __future__ import annotations

import importlib.util
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    import numpy  # noqa: F401


def is_installed(name: str) -> bool:
    """Whether top-level module ``name`` can be imported, without
    importing it.  A finder that refuses the name by raising (an
    import blocker on ``sys.meta_path``) counts as not installed."""
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


#: Whether numpy can be imported (it is not imported to find out).
HAS_NUMPY: bool = is_installed("numpy")

#: Absolute tolerance used for every floating-point comparison of times and
#: memory amounts throughout the library.  Task times and file sizes in the
#: paper's experiments are small integers, so 1e-9 is far below any meaningful
#: difference while absorbing accumulated rounding error.
EPS: float = 1e-9

RngLike = Union[None, int, "numpy.random.Generator"]


def require_numpy(feature: str):
    """Return the ``numpy`` module (imported on the first call), or raise
    a helpful error when the optional dependency is missing."""
    if not HAS_NUMPY:
        raise ModuleNotFoundError(
            f"{feature} requires numpy, which is not installed; "
            f"the scalar scheduling kernel works without it")
    import numpy
    return numpy


def as_rng(rng: RngLike) -> "numpy.random.Generator":
    """Coerce ``None`` / seed / Generator into a :class:`numpy.random.Generator`."""
    _np = require_numpy("RNG coercion (as_rng)")
    if isinstance(rng, _np.random.Generator):
        return rng
    return _np.random.default_rng(rng)


def fmt_num(x: float) -> str:
    """Compact number rendering for reports (drops trailing ``.0``)."""
    if x == float("inf"):
        return "inf"
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.4g}"


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically: temp file in the same
    directory, flush + fsync, then ``os.replace``.  A crash mid-write
    leaves either the old file or the new one — never a half-file that
    downstream tooling half-parses.  All result-file writers (BENCH
    JSONs, experiment CSVs, figure outputs) go through here."""
    import os
    import tempfile
    from pathlib import Path as _Path

    target = _Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent or _Path(".")),
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path, obj, *, indent=2) -> None:
    """:func:`atomic_write_text` of ``json.dumps(obj, indent=indent)``
    plus a trailing newline (the BENCH_*.json convention)."""
    import json as _json
    atomic_write_text(path, _json.dumps(obj, indent=indent) + "\n")
