"""k-memory platform model (paper §3.1, generalised per §7).

A platform holds ``k`` memory classes; class ``c`` owns ``proc_counts[c]``
processors sharing a memory of capacity ``capacities[c]``.  Processors are
indexed globally, class after class: class 0 first, then class 1, and so on.

The paper's dual-memory platform is the ``k = 2`` special case: class 0 is
the *blue* memory (multicore CPUs), class 1 the *red* one (GPU/FPGA
accelerators).  The historical dual-memory API (``Memory.BLUE``/``RED``,
``n_blue``/``n_red``, ``mem_blue``/``mem_red``) is preserved as a thin
facade over the generic representation, so existing call sites and
serialized schedules keep working unchanged.

**Heterogeneous processors.**  The paper assumes the processors inside a
memory class are identical; real hybrid nodes mix CPU SKUs and GPU
generations.  ``speeds`` gives every processor a relative speed factor
(default 1.0): a task with per-class time ``W^(c)`` runs for
``W^(c) / speeds[p]`` on processor ``p`` of class ``c`` (the related-machines
model of Amaris et al., arXiv:1711.06433).  ``speeds = all 1.0`` recovers
the paper's model exactly — serialization omits the vector and the
scheduling kernel takes the identical uniform-class arithmetic, so
homogeneous platforms behave (and hash) exactly as before.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union


class Memory:
    """One memory class of a platform, identified by its index.

    Instances are interned (one object per index), so identity comparisons
    (``placement.memory is Memory.BLUE``) behave exactly like the historical
    enum.  ``Memory(0)`` / ``Memory("blue")`` both yield the blue memory;
    indices beyond the dual pair render as ``"mem2"``, ``"mem3"``, ...
    """

    __slots__ = ("index", "value")

    _interned: dict[int, "Memory"] = {}
    _CANONICAL_NAMES = {0: "blue", 1: "red"}

    # Populated after the class body (interning needs the class object).
    BLUE: "Memory"
    RED: "Memory"

    def __new__(cls, key: Union[int, str, "Memory"]) -> "Memory":
        if isinstance(key, Memory):
            return key
        if isinstance(key, str):
            key = cls._index_of_name(key)
        index = int(key)
        if index < 0:
            raise ValueError(f"memory index must be >= 0, got {index}")
        try:
            return cls._interned[index]
        except KeyError:
            self = super().__new__(cls)
            object.__setattr__(self, "index", index)
            object.__setattr__(self, "value",
                               cls._CANONICAL_NAMES.get(index, f"mem{index}"))
            cls._interned[index] = self
            return self

    @classmethod
    def _index_of_name(cls, name: str) -> int:
        for idx, canonical in cls._CANONICAL_NAMES.items():
            if name == canonical:
                return idx
        if name.startswith("mem") and name[3:].isdigit():
            return int(name[3:])
        raise ValueError(f"unknown memory name {name!r}")

    # -- interning keeps identity semantics; forbid mutation ------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Memory instances are immutable")

    def __reduce__(self):  # pickling / deepcopy preserve interning
        return (Memory, (self.index,))

    def __copy__(self) -> "Memory":
        return self

    def __deepcopy__(self, memo: dict) -> "Memory":
        return self

    # -- dual-memory conveniences ----------------------------------------
    def other(self) -> "Memory":
        """The opposite memory of the dual pair (only defined for k = 2)."""
        if self.index not in (0, 1):
            raise ValueError(f"other() is only defined for the dual pair, "
                             f"not {self}")
        return Memory(1 - self.index)

    # -- ordering / rendering --------------------------------------------
    def __lt__(self, other: "Memory") -> bool:
        return self.index < other.index

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Memory.{self.value}>"


Memory.BLUE = Memory(0)
Memory.RED = Memory(1)

#: The dual pair, in canonical (blue, red) order — the ``k = 2`` facade.
MEMORIES: tuple[Memory, Memory] = (Memory.BLUE, Memory.RED)


def _as_index(memory: Union[Memory, int]) -> int:
    return memory.index if isinstance(memory, Memory) else int(memory)


def _proc_count(n) -> int:
    """``n`` as an ``int``: a non-integral count is an error, never
    truncated."""
    try:
        count = int(n)
    except (OverflowError, ValueError):  # inf, nan
        count = None
    if count != n:
        raise ValueError(f"processor counts must be integers, got {n!r}")
    return count


class Platform:
    """Processor counts and memory capacities, one entry per memory class.

    Construction accepts either the historical dual-memory signature::

        Platform(n_blue=2, n_red=1, mem_blue=40, mem_red=40)

    or a generic sequence per class (any ``k >= 1``)::

        Platform([2, 1, 1], [40, 40, 10])

    ``math.inf`` capacities mean unbounded, which turns the memory-aware
    heuristics into their classical memory-oblivious counterparts.

    ``speeds`` optionally gives each processor (global index order) a
    relative speed factor; omitted, every processor runs at speed 1.0 (the
    paper's homogeneous model).
    """

    __slots__ = ("proc_counts", "capacities", "speeds", "_proc_ranges",
                 "uniform_classes", "max_class_speeds", "proc_classes",
                 "proc_memories", "n_procs")

    def __init__(self,
                 n_blue: Union[int, Sequence[int]] = 1,
                 n_red: Union[int, Sequence[float], None] = None,
                 mem_blue: float = math.inf,
                 mem_red: float = math.inf,
                 speeds: Optional[Sequence[float]] = None) -> None:
        try:
            if isinstance(n_blue, (list, tuple)):
                counts = tuple(map(_proc_count, n_blue))
                if n_red is None:
                    caps = tuple(math.inf for _ in counts)
                else:
                    if isinstance(n_red, (int, float)):
                        raise TypeError("generic Platform(counts, capacities) "
                                        "needs a capacity sequence")
                    caps = tuple(float(c) for c in n_red)
            else:
                counts = (_proc_count(n_blue),
                          1 if n_red is None else _proc_count(n_red))
                caps = (float(mem_blue), float(mem_red))
        except OverflowError:   # an integer too large for a float
            raise ValueError("memory capacity too large for a float; "
                             "use inf for unbounded") from None
        if not counts:
            raise ValueError("platform needs at least one memory class")
        if len(counts) != len(caps):
            raise ValueError("proc_counts and capacities must have equal length")
        if any(n < 0 for n in counts):
            raise ValueError("processor counts must be non-negative")
        if sum(counts) == 0:
            raise ValueError("platform needs at least one processor")
        if any(not c >= 0 for c in caps):
            raise ValueError(
                f"memory capacities must be non-negative, got {list(caps)}")
        object.__setattr__(self, "proc_counts", counts)
        object.__setattr__(self, "capacities", caps)
        ranges, start = [], 0
        for n in counts:
            ranges.append(range(start, start + n))
            start += n
        object.__setattr__(self, "_proc_ranges", tuple(ranges))
        # Inverse map: global processor index -> memory-class index (the
        # flat layout the scheduling kernel and avail structures index by).
        object.__setattr__(self, "proc_classes",
                           tuple(c for c, n in enumerate(counts)
                                 for _ in range(n)))
        # The same map as interned Memory objects, and the processor
        # count: Schedule.add reads both on every commit.
        object.__setattr__(self, "proc_memories",
                           tuple(map(Memory, self.proc_classes)))
        n_procs = sum(counts)
        object.__setattr__(self, "n_procs", n_procs)
        if speeds is None:
            spd = (1.0,) * n_procs
        else:
            try:
                spd = tuple(float(s) for s in speeds)
            except OverflowError:   # an integer too large for a float
                raise ValueError(
                    "processor speeds must be finite and > 0") from None
            if len(spd) != n_procs:
                raise ValueError(
                    f"speeds must have one entry per processor "
                    f"({n_procs}), got {len(spd)}")
            if any(s <= 0 or not math.isfinite(s) for s in spd):
                raise ValueError("processor speeds must be finite and > 0")
        object.__setattr__(self, "speeds", spd)
        # Per class: whether all its processors share one speed (the fast
        # path of the EST kernel), and the fastest speed (lower-bound key
        # of the lazy MemMinMin selector).
        uniform, fastest = [], []
        for r in ranges:
            cs = spd[r.start:r.stop]
            uniform.append(len(set(cs)) <= 1)
            fastest.append(max(cs) if cs else 1.0)
        object.__setattr__(self, "uniform_classes", tuple(uniform))
        object.__setattr__(self, "max_class_speeds", tuple(fastest))

    # -- frozen semantics -------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Platform is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        return (self.proc_counts == other.proc_counts
                and self.capacities == other.capacities
                and self.speeds == other.speeds)

    def __hash__(self) -> int:
        return hash((self.proc_counts, self.capacities, self.speeds))

    def __reduce__(self):
        return (Platform, (list(self.proc_counts), list(self.capacities),
                           math.inf, math.inf,
                           None if not self.is_heterogeneous
                           else list(self.speeds)))

    # ------------------------------------------------------------------
    # memory classes
    # ------------------------------------------------------------------
    @property
    def n_classes(self) -> int:
        """Number of memory classes (2 for the paper's dual platform)."""
        return len(self.proc_counts)

    def memories(self) -> tuple[Memory, ...]:
        """All memory classes, in index order."""
        return tuple(Memory(c) for c in range(self.n_classes))

    def classes(self) -> range:
        """Memory-class indices (``range(k)``)."""
        return range(self.n_classes)

    def _require_dual(self, attr: str) -> None:
        if self.n_classes != 2:
            raise AttributeError(
                f"{attr} is only defined on dual-memory (k=2) platforms; "
                f"this one has {self.n_classes} classes")

    # -- dual facade ------------------------------------------------------
    @property
    def n_blue(self) -> int:
        self._require_dual("n_blue")
        return self.proc_counts[0]

    @property
    def n_red(self) -> int:
        self._require_dual("n_red")
        return self.proc_counts[1]

    @property
    def mem_blue(self) -> float:
        self._require_dual("mem_blue")
        return self.capacities[0]

    @property
    def mem_red(self) -> float:
        self._require_dual("mem_red")
        return self.capacities[1]

    # ------------------------------------------------------------------
    # processor indexing
    # ------------------------------------------------------------------
    def procs(self, memory: Union[Memory, int]) -> range:
        """Global indices of the processors attached to ``memory``."""
        return self._proc_ranges[_as_index(memory)]

    def n_procs_of(self, memory: Union[Memory, int]) -> int:
        """Number of processors attached to ``memory``."""
        return self.proc_counts[_as_index(memory)]

    def memory_of(self, proc: int) -> Memory:
        """Memory a global processor index operates on."""
        if not 0 <= proc < self.n_procs:
            raise ValueError(f"processor index {proc} out of range [0, {self.n_procs})")
        return self.proc_memories[proc]

    def class_of(self, proc: int) -> int:
        """Memory-class index of a global processor index."""
        return self.memory_of(proc).index

    # ------------------------------------------------------------------
    # processor speeds
    # ------------------------------------------------------------------
    @property
    def is_heterogeneous(self) -> bool:
        """Whether any processor runs at a speed other than 1.0.

        ``False`` is the paper's model; serialization omits the speed
        vector exactly when this is ``False`` (digest stability).
        """
        return any(s != 1.0 for s in self.speeds)

    def speed(self, proc: int) -> float:
        """Relative speed of a global processor index."""
        return self.speeds[proc]

    def class_speeds(self, memory: Union[Memory, int]) -> tuple[float, ...]:
        """Speeds of the processors attached to ``memory``."""
        r = self._proc_ranges[_as_index(memory)]
        return self.speeds[r.start:r.stop]

    def max_class_speed(self, memory: Union[Memory, int]) -> float:
        """Fastest processor speed inside ``memory`` (1.0 when empty) —
        the per-class duration lower bound ``W^(c) / max_speed`` used by
        MemMinMin's lazy selector for its eternal heap keys."""
        return self.max_class_speeds[_as_index(memory)]

    def is_uniform_class(self, memory: Union[Memory, int]) -> bool:
        """Whether every processor of ``memory`` shares one speed — the
        condition under which the EST kernel takes the class-wide
        ``min(avail)`` fast path (bit-identical to the homogeneous
        arithmetic)."""
        return self.uniform_classes[_as_index(memory)]

    def duration(self, w: float, proc: int) -> float:
        """Execution time of a task with class-time ``w`` on ``proc``
        (``w / speed``; exact — bit-identical to ``w`` — at speed 1.0)."""
        return w / self.speeds[proc]

    def with_speeds(self, speeds: Optional[Sequence[float]]) -> "Platform":
        """Copy of this platform with a different speed vector
        (``None`` resets to homogeneous)."""
        return Platform(list(self.proc_counts), list(self.capacities),
                        speeds=None if speeds is None else list(speeds))

    # ------------------------------------------------------------------
    # memory capacities
    # ------------------------------------------------------------------
    def capacity(self, memory: Union[Memory, int]) -> float:
        """Capacity of ``memory``."""
        return self.capacities[_as_index(memory)]

    @property
    def is_memory_bounded(self) -> bool:
        """Whether at least one memory has a finite capacity."""
        return any(math.isfinite(c) for c in self.capacities)

    def with_capacities(self, capacities: Sequence[float]) -> "Platform":
        """Copy of this platform with different memory capacities
        (processor speeds preserved)."""
        return Platform(list(self.proc_counts), list(capacities),
                        speeds=list(self.speeds))

    def with_bounds(self, mem_blue: float, mem_red: float) -> "Platform":
        """Copy with different capacities (dual-memory convenience)."""
        self._require_dual("with_bounds")
        return self.with_capacities((mem_blue, mem_red))

    def with_uniform_bound(self, bound: float) -> "Platform":
        """Copy with the same capacity ``bound`` on every memory
        (the ``M^(bound)`` setting used throughout the paper's §6)."""
        return self.with_capacities([bound] * self.n_classes)

    def unbounded(self) -> "Platform":
        """Copy of this platform with infinite memories."""
        return self.with_capacities([math.inf] * self.n_classes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        caps = ", ".join("inf" if math.isinf(c) else f"{c:g}"
                         for c in self.capacities)
        spd = (f", speeds={[f'{s:g}' for s in self.speeds]}"
               if self.is_heterogeneous else "")
        return (f"Platform(procs={list(self.proc_counts)}, "
                f"capacities=[{caps}]{spd})")
