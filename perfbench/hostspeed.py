"""Host speed, read from a fixed calibration kernel between and during requests.

The benchmark's host is shared, and its speed swings by up to 2x over
seconds to minutes: the same request took 0.32 s and 0.57 s a few seconds
apart.  The swing is not the same for all work: numpy calls on short
vectors, whose time is mostly per-call overhead, swing further than calls
on vectors of a few thousand elements.  So each workload is timed against
a kernel of its own kind, which shares no code with qmaxemu: a saturating
signed accumulation, like the pipeline's N_ADD loop, over vectors as wide
as those in the workload's hot loop.  Every end-to-end time is scaled by

    NOMINAL_S / (median kernel time measured while it ran)

which gives the time the work would take at the nominal speed, when the
kernel takes NOMINAL_S.  A change to qmaxemu moves the raw time and not the
kernel, so it moves the scaled time by the same factor.  The raw times are
kept in the report next to the scaled ones.

A `Sampler` runs the kernel from a SIGALRM handler every INTERVAL_S seconds,
so long requests are sampled while they run, and counts the handler's own
time so that work.measure can take it out of the request it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel time at the nominal speed: about the median over runs on an Intel
# Xeon host with nproc 2 (Python 3.11, numpy 2.4), where it ranged from
# 10 to 22 ms.  It sets only the scale of the scaled times.
NOMINAL_S = 0.016
INTERVAL_S = 0.25

# Kernel per workload: (vector width, columns accumulated), the columns set
# for about NOMINAL_S of work.  The width is that of the N_ADD vectors at
# n = 12 for emulate-n12, and for bench-sweep, whose pipeline time goes
# mostly to n = 11 and 12; at n = 8 for solve-n8; and short for f64-large,
# whose butterfly time goes mostly to slices of a few elements.  Over
# 20- and 30-second windows of 5 to 7 minutes of each workload, these left
# quartile spreads of 0.03 to 0.06 in the median scaled request time, and a
# kernel of the other width 0.06 to 0.15.
KERNELS = {
    "emulate-n12": (1 << 12, 230),
    "bench-sweep": (1 << 12, 230),
    "solve-n8": (1 << 8, 460),
    "f64-large": (1 << 8, 460),
}
_TERMS = np.random.default_rng(6).integers(-1 << 20, 1 << 20, 1024)
_LIMIT = 1 << 30


def kernel(width: int, columns: int) -> float:
    """Seconds taken by one fixed pass of a saturating signed accumulation
    of `columns` sign columns into `width` int64 values."""
    rows = np.arange(width, dtype=np.int64)
    acc = np.zeros(width, dtype=np.int64)
    started = time.perf_counter()
    for col, term in enumerate(_TERMS[:columns]):
        v = rows & col
        for shift in (16, 8, 4, 2, 1):
            v ^= v >> shift
        raw = acc + (1 - 2 * (v & 1)) * term
        if (raw > _LIMIT).any() or (raw < -_LIMIT).any():
            raise AssertionError("calibration accumulator saturated")
        acc = np.clip(raw, -_LIMIT, _LIMIT)
    return time.perf_counter() - started


class Sampler:
    """Samples of a workload's kernel, taken every INTERVAL_S seconds while
    started, and on demand."""

    def __init__(self, workload: str):
        self.shape = KERNELS[workload]
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent in the kernel, timer-driven or not
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            self.samples.append(kernel(*self.shape))
            self.stolen += time.perf_counter() - started
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.stolen


def scale(samples: list[float]) -> float:
    """Factor from raw host seconds to seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(samples)
