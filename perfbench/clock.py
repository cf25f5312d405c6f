"""Clocks for timing on a shared host: run time, and the host's speed.

A neighbour can slow this process down in two ways.  It can take the CPU
away (another process, or the hypervisor's steal), which stretches the wall
clock but not CPU time: ``run_time`` reads the lesser of the two.  Or it can
slow the CPU while this process holds it (a busy sibling hyperthread, shared
caches and memory bandwidth), which stretches both: the same op has taken
from 0.85x to 1.1x its median CPU time from one ten seconds to the next on
a 2-vCPU container.  ``HostSpeed`` reads that second kind from a fixed probe
timed between ops, so op times can be reported in *reference seconds*: run
time scaled to a host on which the probe takes ``NOMINAL_S``, by the probe's
slow-down to the power ``EXPONENT``.
"""

from __future__ import annotations

import resource
import statistics
import time

#: Probe time, in seconds, of a host at reference speed (about the probe's
#: median on the 2-vCPU x86 container, Python 3.11, that defined the
#: benchmark).
NOMINAL_S = 0.018
#: Op run time after which the next probe is due.
INTERVAL_S = 0.1
#: Op times follow the probe's time to this power: the probe's scattered
#: loads feel a neighbour more than the scheduler's mix of work does.
#: Fitting log op time to log probe time gave 0.7 over ops repeated in
#: one process, 0.6 over twenty-second blocks of a repeated op, and from
#: 0.3 to 0.8 over whole runs, depending on how busy the host was.
EXPONENT = 0.6


def clocks() -> tuple:
    """Wall time and CPU time (this process and its waited-for children)."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.perf_counter(),
            time.process_time() + child.ru_utime + child.ru_stime)


def run_time(start: tuple) -> float:
    """Seconds since ``start`` (a ``clocks()`` reading) that the program ran.

    The lesser of wall and CPU time: CPU time leaves out the time a
    neighbour held the CPU (this kernel leaves steal out of it, too), and
    the wall clock caps work spread over several threads or processes.
    """
    wall, cpu = clocks()
    return min(wall - start[0], cpu - start[1])


#: The probe's data: 8 MB of floats and a 64k-entry dict, past the caches
#: of a core, like the scheduler's graphs and profiles.
_FLOATS = [float(i) for i in range(1 << 18)]
_TABLE = {i: 0.0 for i in range(1 << 16)}


def probe(rounds: int = 15000) -> float:
    """Run time of a fixed loop of float, list and dict work at scattered
    addresses.  It calls no library code.  A probe that stays within the
    core's caches tracked the scheduler's speed changes less than half as
    well: neighbours slow down memory access more than arithmetic."""
    start = clocks()
    floats, table = _FLOATS, _TABLE
    k, acc = 12345, 0.0
    for _ in range(rounds):
        k = (k * 1103515245 + 12345) & 0x3FFFF
        acc += floats[k]
        table[k & 0xFFFF] = acc
    return run_time(start)


class HostSpeed:
    """The host's speed relative to reference, from probes taken between
    ops whenever ``INTERVAL_S`` of run time has passed since the last one.

    An op that ends with a probe due is scaled by the mean of the probes
    just before and just after it; any other op by the last probe before
    it, taken at most ``INTERVAL_S`` of run time earlier.
    """

    def __init__(self) -> None:
        probe()   # the first pass through the loop is not representative
        self.readings: list = []
        self.since = INTERVAL_S

    def _read(self) -> float:
        self.readings.append(probe())
        self.since = 0.0
        return self.readings[-1]

    def before(self) -> None:
        """Call right before an op starts."""
        if self.since >= INTERVAL_S:
            self._read()

    def scale(self, seconds: float) -> float:
        """Reference seconds per second of run time of an op that ran
        ``seconds`` and has just ended."""
        reading = self.readings[-1]
        self.since += seconds
        if self.since >= INTERVAL_S:
            reading = (reading + self._read()) / 2
        return (NOMINAL_S / reading) ** EXPONENT

    def summary(self) -> str:
        r = sorted(self.readings)
        return (f"{len(r)} probes, median {statistics.median(r) * 1e3:.2f} ms "
                f"(reference {NOMINAL_S * 1e3:.2f} ms), range "
                f"{r[0] * 1e3:.2f}-{r[-1] * 1e3:.2f} ms")
