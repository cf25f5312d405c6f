"""Sweep checkpoint/resume: a content-addressed journal of cell results.

A multi-hour campaign dies with its coordinator unless completed work is
durable.  :class:`CellCheckpoint` journals every finished cell of a
:func:`repro.experiments.engine.map_cells` call as one checksummed JSONL
line — the same replay pattern as the service's ``--cache-dir`` journal —
keyed by the **content address of the cell itself**
(:func:`repro.io.json_io.cell_wire_digest` over worker name, payload
digest and cell wire).  Rerunning the same campaign against the same
journal (``memsched experiment ... --checkpoint ck.jsonl --resume``)
replays completed cells from disk and re-executes only the unfinished
ones; cell workers are pure and cell wire round-trips exactly, so the
resumed output is byte-identical to an uninterrupted run.

Journal format (one :func:`repro.io.json_io.journal_encode` line each)::

    {"crc": ..., "row": {"op": "cell", "k": <digest>, "r": <wire>}}
    {"crc": ..., "row": {"op": "done", "call": <digest>, "n": <count>}}

``done`` sentinels mark a whole ``map_cells`` call complete (a driver
may make several calls — e.g. fig10 sweeps heuristics and ILP
separately — and each gets its own sentinel).  Replay skips torn or
checksum-failing lines and keeps going: the corrupted cell simply
re-executes.  ``cell`` records are flushed per line, so a ``kill -9``
of the coordinator loses at most the cells in flight.

Content addressing makes the journal self-describing: no positional
bookkeeping, duplicate cells in one grid resolve to one execution, and a
*changed* sweep (different cells) safely reuses whatever overlaps.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Union

from .. import faults, obs
from ..io.json_io import (
    canonical_json,
    cell_wire_digest,
    journal_decode,
    journal_encode,
)

PathLike = Union[str, "Path"]


class CheckpointError(RuntimeError):
    """The checkpoint journal cannot be used as requested."""


def cell_key(worker_name: str, payload_digest: str, cell_wire: object
             ) -> str:
    """Content address of one cell *execution*: the same cell descriptor
    under a different worker or payload is different work."""
    return cell_wire_digest([worker_name, payload_digest, cell_wire])


def call_key(worker_name: str, payload_digest: str, keys: list) -> str:
    """Content address of one whole ``map_cells`` call (its ordered cell
    keys) — what a ``done`` sentinel refers to."""
    return cell_wire_digest([worker_name, payload_digest, list(keys)])


class CellCheckpoint:
    """One open checkpoint journal: replayed on construction, appended as
    cells complete.  Thread-safe (the distributed executor records from
    its host threads).

    ``resume=False`` (the default) refuses to open a non-empty journal —
    silently mixing two campaigns' results would be worse than failing —
    so resuming is always an explicit ``--resume``.
    """

    def __init__(self, path: PathLike, *, resume: bool = False) -> None:
        self.path = Path(path)
        self.results: dict = {}
        self.done_calls: set = set()
        self.n_replayed = 0
        self.n_recorded = 0
        self._lock = threading.Lock()
        if self.path.exists() and self.path.stat().st_size > 0:
            if not resume:
                raise CheckpointError(
                    f"checkpoint {self.path} already exists; pass "
                    f"resume=True (memsched experiment --resume) to "
                    f"continue it, or remove the file to start over")
            self._replay()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")

    def _replay(self) -> None:
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                row = journal_decode(line)
                if row is None:      # torn write / bad CRC: re-execute
                    continue
                op = row.get("op")
                if op == "cell" and isinstance(row.get("k"), str) \
                        and "r" in row:
                    self.results[row["k"]] = row["r"]
                    self.n_replayed += 1
                elif op == "done" and isinstance(row.get("call"), str):
                    self.done_calls.add(row["call"])

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _append(self, row: dict) -> None:
        line = journal_encode(row)
        injector = faults.active()
        if injector is not None and injector.fire(
                "journal.corrupt", injector.plan.corrupt,
                injector.plan.corrupt_limit):
            line = line[:max(1, len(line) // 2)]   # torn write
        st = obs.active()
        if st is not None:
            t0 = time.perf_counter()
        self._fh.write(line + "\n")
        self._fh.flush()
        if st is not None:
            st.registry.histogram("memsched_checkpoint_write_seconds"
                                  ).observe(time.perf_counter() - t0)

    def record(self, key: str, result_wire: object) -> None:
        """Journal one completed cell (flushed: survives coordinator
        ``kill -9``).  Re-recording a known key is a no-op — results are
        content-addressed, equal keys mean equal values."""
        injector = faults.active()
        with self._lock:
            if key not in self.results:
                self.results[key] = result_wire
                self._append({"op": "cell", "k": key, "r": result_wire})
                self.n_recorded += 1
                if injector is not None \
                        and injector.crash_due(self.n_recorded):
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                    os._exit(137)   # the deterministic kill -9 stand-in

    def mark_done(self, ck: str, n: int) -> None:
        """Journal a whole call's completion sentinel."""
        with self._lock:
            if ck not in self.done_calls:
                self.done_calls.add(ck)
                self._append({"op": "done", "call": ck, "n": int(n)})

    def get(self, key: str, default=None):
        with self._lock:
            return self.results.get(key, default)

    def is_done(self, ck: str) -> bool:
        with self._lock:
            return ck in self.done_calls

    def stats(self) -> dict:
        with self._lock:
            return {"path": str(self.path),
                    "cells": len(self.results),
                    "replayed": self.n_replayed,
                    "recorded": self.n_recorded,
                    "done_calls": len(self.done_calls)}

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "CellCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# ambient checkpoint (mirrors engine.set_default_hosts / remote_hosts)
# ----------------------------------------------------------------------
@contextmanager
def checkpointing(path_or_ckpt: Union[PathLike, CellCheckpoint], *,
                  resume: bool = False):
    """Make every :func:`~repro.experiments.engine.map_cells` call inside
    the block journal to (and resume from) one checkpoint — how whole
    experiment drivers gain crash recovery with zero signature changes
    (``memsched experiment fig12 --checkpoint ck.jsonl [--resume]`` wraps
    the driver call in exactly this).  Yields the shared
    :class:`CellCheckpoint` for :meth:`~CellCheckpoint.stats`."""
    from .engine import set_default_checkpoint

    owned = not isinstance(path_or_ckpt, CellCheckpoint)
    ckpt = (CellCheckpoint(path_or_ckpt, resume=resume) if owned
            else path_or_ckpt)
    previous = set_default_checkpoint(ckpt)
    try:
        yield ckpt
    finally:
        set_default_checkpoint(previous)
        if owned:
            ckpt.close()


def payload_digest(payload_wire: object) -> str:
    """Digest of a wire-encoded payload (shared with the /cells service
    path's per-process payload cache keying)."""
    import hashlib
    return hashlib.sha256(
        canonical_json(payload_wire).encode("utf-8")).hexdigest()
