"""Host-speed calibration: timings in reference-host seconds.

The benchmark's reference host is a 2-core VM that shares its machine,
and its 105 MB last-level cache, with other tenants.  Their load slows
the simulator, by up to 1.5x over a whole run, in bursts of a few
seconds that show neither in the load average nor as steal time, so a
plain wall-clock median over a 30-second run still moves by 10-28%
from run to run.

The benchmark therefore asks a calibration process to time a fixed
pure-Python kernel (:func:`kernel`, which calls nothing of the
simulator) right before and right after each timed unit, and scales
the unit's wall time by ``REFERENCE_KERNEL_S / median(kernel times)``:
the time the unit would have taken at the speed the reference host has
when quiet.  A change to the simulator moves the unit's time and not
the kernel's, so it shows in full; a change in host speed moves both
alike and cancels.  The kernel chases pointers through a 26 MB table,
ten times the per-core L2, because the tenants' load reaches the
simulator mostly through the shared cache: a kernel that fits in L2
slows about twice as much as the simulator under the same load, one
with this table about as much.  The table lives in its own process so
that it adds nothing to the workload's memory.  The two processes take
turns, never running at once, and while the clock is open both are
pinned to the CPU the workload was running on: a kernel timed on the
other CPU follows the workload's slowdowns much less closely.

A burst after one unit serves as the burst before the next when no
more than :data:`REUSE_S` has passed in between, so back-to-back cells
share their calibrations.

    python benchmarks/suite/hostspeed.py     # serve bursts on stdin
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from statistics import median
from typing import Iterator, List, Optional, Set

#: Median :func:`kernel` time on the reference host (2-core x86 VM,
#: Python 3.11) when it is quiet.
REFERENCE_KERNEL_S = 0.0070
#: Kernel runs per calibration burst.
BURST = 3
#: A burst is reused as the next unit's "before" burst within this time.
REUSE_S = 0.05
#: log2 of the kernel table's entries (2**18 slots, about 26 MB).
TABLE_BITS = 18
#: The calibration process must end within this many seconds of its
#: input closing.
STOP_TIMEOUT_S = 10


class _Slot:
    __slots__ = ("tag", "value", "next")

    def __init__(self, tag: int, value: int) -> None:
        self.tag = tag
        self.value = value
        self.next: Optional[_Slot] = None


def make_table(bits: int = TABLE_BITS) -> List[_Slot]:
    """Slots linked in a fixed scattered order."""
    size = 1 << bits
    table = [_Slot(i & 3, i) for i in range(size)]
    for i, slot in enumerate(table):
        slot.next = table[(i * 40503 + 7) % size]
    return table


def kernel(table: List[_Slot], steps: int = 8000) -> int:
    """A fixed mix of the work the simulator does on the host: integer
    arithmetic, attribute loads through scattered objects, and list
    indexing beyond the L2."""
    mask = len(table) - 1
    node = table[0]
    x = 12345
    acc = 0
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = node.next
        if node.tag == (x >> 26) & 3:
            acc += node.value
        table[(x >> 4) & mask].value += 1
    return acc


def burst(table: List[_Slot], runs: int = BURST) -> List[float]:
    """Seconds of each of *runs* kernel calls."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel(table)
        times.append(time.perf_counter() - start)
    return times


def serve() -> None:
    """The calibration process: one burst per line read, its times
    written back as a JSON list; ends at end of input."""
    table = make_table()
    gc.freeze()  # the table is permanent: keep it out of collections
    burst(table, 1)  # warm the kernel's code and the table's pages
    print("ready", flush=True)
    for _ in sys.stdin:
        print(json.dumps(burst(table)), flush=True)


def pin_to_current_cpu() -> Optional[Set[int]]:
    """Restrict this process to the CPU it is running on; returns the
    CPUs it was allowed before, or None when nothing changed."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            # Field 39, "processor", counting from the state (field 3).
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu} if cpu in allowed else {min(allowed)})
    return allowed


class Unit:
    """One timed unit: its wall seconds and its host-speed factor."""

    wall = 0.0
    factor = 1.0

    @property
    def seconds(self) -> float:
        """Wall seconds at reference-host speed."""
        return self.wall * self.factor


class HostClock:
    """Times units in reference-host seconds.

    Use it as a context manager: it starts the calibration process and
    stops it on the way out.  With ``calibrated=False`` the factor is 1
    and no process starts (tests, traced runs).
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self._proc: Optional[subprocess.Popen] = None
        self._allowed: Optional[Set[int]] = None
        self._last: List[float] = []
        self._last_at = float("-inf")
        #: Every unit's factor, in order.
        self.factors: List[float] = []

    def __enter__(self) -> "HostClock":
        if self.calibrated:
            # The calibration process inherits the pinning.
            self._allowed = pin_to_current_cpu()
            self._proc = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
            if self._proc.stdout.readline().strip() != "ready":
                self.close()
                raise RuntimeError("hostspeed: calibration process failed")
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the calibration process, wait for it to end, and let this
        process run on every CPU it could before."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        allowed, self._allowed = self._allowed, None
        if allowed is not None:
            os.sched_setaffinity(0, allowed)

    def _ask(self) -> List[float]:
        """One burst's kernel times from the calibration process."""
        self._proc.stdin.write("burst\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("hostspeed: calibration process ended")
        return json.loads(reply)

    def _burst(self) -> List[float]:
        self._last, self._last_at = self._ask(), time.perf_counter()
        return self._last

    @contextmanager
    def unit(self) -> Iterator[Unit]:
        """``with clock.unit() as u:`` times the block into ``u``."""
        unit = Unit()
        before: List[float] = []
        if self.calibrated:
            fresh = time.perf_counter() - self._last_at <= REUSE_S
            before = self._last if fresh else self._burst()
        start = time.perf_counter()
        try:
            yield unit
        finally:
            unit.wall = time.perf_counter() - start
            if self.calibrated:
                unit.factor = REFERENCE_KERNEL_S / median(
                    before + self._burst())
                self.factors.append(unit.factor)


if __name__ == "__main__":
    serve()
