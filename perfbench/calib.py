"""Host-speed calibration: a fixed pure-Python kernel timed alongside the ops.

The sandbox this benchmark runs in shares its cores, so the host's
speed drifts by tens of percent over seconds.  Every workload runs its
ops in fixed-size chunks.  Short kernel samples are taken at both ends
of each chunk and, for workloads that run one op at a time, between its
ops whenever ``INTERVAL_S`` has passed since the last sample.  A chunk's
timings are then scaled to a nominal host speed::

    scaled = raw * (mean kernel rate during the chunk / NOMINAL_RATE)

An op's latency is scaled by the samples on either side of it instead.

Sampling through the chunk, not only at its ends, follows bursts that
last a second or two; the mean over many samples keeps a sample that a
context switch interrupted from skewing the factor.  Sampling time is
not counted as busy time.

The kernel touches none of the repository's code, so a change to the
program cannot move it.  It runs with the garbage collector off and
refuses to run while another thread or a trace/profile hook is live:
either would slow the kernel and so flatter every scaled timing.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import sys
import threading
import time

#: Kernel iterations per sample (about 2 ms on the reference host).
KERNEL_ITERATIONS = 4_000
#: Entries of the table the kernel reads at random (4 MiB of pointers,
#: larger than the caches), so the kernel also waits on memory as the
#: workloads do.
TABLE_SIZE = 1 << 19
#: Minimum spacing of samples taken between ops.
INTERVAL_S = 0.04
#: Samples taken at each end of a chunk.
EDGE_SAMPLES = 3
#: Discarded kernel runs before the edge samples.  A process that has
#: been waiting on I/O runs slow for some milliseconds after it wakes.
SPIN_RUNS = 10
#: Kernel iterations per second on the reference host (2-core x86-64
#: container, Python 3.11).  Scaled timings read as if measured there.
NOMINAL_RATE = 1.9e6


class CalibrationRefused(RuntimeError):
    """The kernel would be timed under conditions that slow it."""


def check_quiet() -> None:
    """Raise :class:`CalibrationRefused` unless the process is quiet."""
    if threading.active_count() > 1:
        names = sorted(t.name for t in threading.enumerate())
        raise CalibrationRefused(f"extra threads are running: {names}")
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise CalibrationRefused("a sys.settrace/sys.setprofile hook is live")
    if threading.gettrace() is not None or threading.getprofile() is not None:
        raise CalibrationRefused("a threading trace/profile hook is installed")


def make_table() -> list[int]:
    # small ints are shared objects, so the table costs only its pointers
    return [(i * 7) & 0xFF for i in range(TABLE_SIZE)]


def kernel(table: list[int], iterations: int = KERNEL_ITERATIONS) -> int:
    """A fixed mix of dict, list and int work plus random reads of ``table``."""
    counts: dict[int, int] = {}
    window: list[int] = []
    mask = len(table) - 1
    acc = 7
    total = 0
    for i in range(iterations):
        key = (acc ^ i) & 1023
        counts[key] = counts.get(key, 0) + i
        window.append(acc & 0xFF)
        if len(window) > 32:
            acc += window.pop(0)
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[acc & mask] + table[(acc >> 7) & mask]
    return acc + total + len(counts)


def sample_rate(table: list[int]) -> float:
    """Kernel iterations per second over one sample."""
    check_quiet()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel(table)
        return KERNEL_ITERATIONS / (time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()


class Calibrator:
    """Kernel samples for the chunk being measured, and every rate seen."""

    def __init__(self) -> None:
        self.table = make_table()
        self.rates: list[float] = []
        self.spent = 0.0  # seconds spent sampling, over the whole run
        #: (start, end) of each op of the current chunk
        self.ops: list[tuple[float, float]] = []
        self._chunk: list[tuple[float, float]] = []  # (time, rate)
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        rate = sample_rate(self.table)
        self._last = time.perf_counter()
        self._chunk.append((self._last, rate))
        self.rates.append(rate)
        self.spent += self._last - start

    def tick(self) -> None:
        """Between two ops: sample if the last sample is old enough."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def _edge(self) -> None:
        start = time.perf_counter()
        for _ in range(SPIN_RUNS):
            kernel(self.table)
        self.spent += time.perf_counter() - start
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def begin_chunk(self) -> None:
        gc.collect()
        self._chunk = []
        self.ops = []
        self._edge()

    def end_chunk(self) -> tuple[float, list[float]]:
        """Close the chunk; returns its scale factor and one per recorded op.

        An op's factor averages the last sample before it and the first
        after it, so a long op follows a burst that a chunk only averages.
        """
        self._edge()
        times = [t for t, _ in self._chunk]
        rates = [r for _, r in self._chunk]
        per_op = []
        for start, end in self.ops:
            before = bisect.bisect_right(times, start) - 1
            after = bisect.bisect_left(times, end)
            per_op.append((rates[before] + rates[after]) / 2 / NOMINAL_RATE)
        return statistics.fmean(rates) / NOMINAL_RATE, per_op
