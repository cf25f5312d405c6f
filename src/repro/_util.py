"""Small shared helpers (tolerances, RNG coercion).

``numpy`` is an *optional* dependency of the core library: the scheduling
engine is pure Python (the RNG-driven DAG generators are the only
consumers).
The import is guarded here once; everything else checks :data:`HAS_NUMPY`
or calls :func:`require_numpy` at the point of use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

try:
    import numpy as np
    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

if TYPE_CHECKING:  # pragma: no cover
    import numpy  # noqa: F401

#: Absolute tolerance used for every floating-point comparison of times and
#: memory amounts throughout the library.  Task times and file sizes in the
#: paper's experiments are small integers, so 1e-9 is far below any meaningful
#: difference while absorbing accumulated rounding error.
EPS: float = 1e-9

RngLike = Union[None, int, "numpy.random.Generator"]


def require_numpy(feature: str):
    """Return the ``numpy`` module, or raise a helpful error when the
    optional dependency is missing."""
    if not HAS_NUMPY:
        raise ModuleNotFoundError(
            f"{feature} requires numpy, which is not installed; "
            f"the scalar scheduling kernel works without it")
    return np


def as_rng(rng: RngLike) -> "numpy.random.Generator":
    """Coerce ``None`` / seed / Generator into a :class:`numpy.random.Generator`."""
    _np = require_numpy("RNG coercion (as_rng)")
    if isinstance(rng, _np.random.Generator):
        return rng
    return _np.random.default_rng(rng)


def feq(a: float, b: float, eps: float = EPS) -> bool:
    """Float equality within the library tolerance."""
    return abs(a - b) <= eps


def fle(a: float, b: float, eps: float = EPS) -> bool:
    """``a <= b`` within the library tolerance."""
    return a <= b + eps


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
