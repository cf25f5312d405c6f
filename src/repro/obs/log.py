"""Structured JSON logging to stderr.

One JSON object per line, so service stderr is greppable and
machine-parseable instead of a mix of prints and silently swallowed
exceptions.  The threshold comes from ``MEMSCHED_LOG_LEVEL``
(``debug``/``info``/``warning``/``error``, default ``info``), read once
per process on first use; :func:`set_level` overrides it (tests).

Logging never touches stdout — the CLI's byte-identity contracts
(``memsched experiment`` output equals the serial run) only cover
stdout, and stderr is where diagnostics already go.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional

ENV_VAR = "MEMSCHED_LOG_LEVEL"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_threshold: Optional[int] = None

_JSON_TYPES = (str, int, float, bool, type(None), list, tuple, dict)


def set_level(level: Optional[str]) -> Optional[str]:
    """Set the process log level; returns the previous one (``None`` =
    not yet resolved from the environment)."""
    global _threshold
    previous = _threshold
    _threshold = None if level is None else LEVELS[level]
    for name, num in LEVELS.items():
        if num == previous:
            return name
    return None


def _active_threshold() -> int:
    global _threshold
    if _threshold is None:
        raw = os.environ.get(ENV_VAR, "info").strip().lower()
        _threshold = LEVELS.get(raw, LEVELS["info"])
    return _threshold


def log(level: str, event: str, **fields) -> None:
    """Emit one structured log line: ``{"level", "event", "ts", ...}``.
    Non-JSON field values are stringified; a closed stderr (interpreter
    teardown) is ignored."""
    if LEVELS.get(level, LEVELS["info"]) < _active_threshold():
        return
    row: dict = {"level": level, "event": event,
                 "ts": round(time.time(), 3)}
    for key, value in fields.items():
        row[key] = value if isinstance(value, _JSON_TYPES) else str(value)
    try:
        print(json.dumps(row, sort_keys=True, default=str),
              file=sys.stderr, flush=True)
    except (ValueError, OSError):
        pass


def debug(event: str, **fields) -> None:
    log("debug", event, **fields)


def info(event: str, **fields) -> None:
    log("info", event, **fields)


def warning(event: str, **fields) -> None:
    log("warning", event, **fields)


def error(event: str, **fields) -> None:
    log("error", event, **fields)
