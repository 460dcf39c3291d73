"""Host speed, read from fixed numpy kernels timed between stretches of work.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to a factor of two within minutes.  Each timing the benchmark
reports as an end-to-end metric is therefore divided by the host's
slowdown while it was taken: a kernel's time, read every SEGMENT_STEPS
solver steps and just before and after each repetition, over the kernel's
reference time.  There are two kernels, each doing what one kind of solver
step does, because contention slows the two kinds by different amounts:

explicit  differences, a fractional power and a reduction on 1024 floats,
          as an explicit step on a small grid
banded    a mobility and a tridiagonal solve on 4096 cells, as a
          semi-implicit step

A kernel's own time is never counted as a solver's.  The raw timings and
the slowdowns are printed beside the result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# solver steps between two readings of the kernel: about 0.4 s of
# explicit_p2 and 1 s of semi_implicit_singular
SEGMENT_STEPS = 2048

_RNG = np.random.default_rng(0)
_X = _RNG.random(1024)
_U = _RNG.random(4096) + 0.1


def _explicit() -> None:
    y = _X.copy()
    for _ in range(500):
        g = np.diff(y)
        y[1:] = 0.5 * (y[1:] + np.abs(g) ** 1.5)
        float(np.max(y))


def _banded() -> None:
    u = _U.copy()
    ab = np.zeros((3, u.size))
    for _ in range(40):
        g = np.diff(u, prepend=u[0], append=0.0)
        c = (g * g + 1e-12) ** 0.4
        ab[0, 1:] = -c[1:-1]
        ab[1] = 1.0 + c[:-1] + c[1:]
        ab[2, :-1] = -c[1:-1]
        u = solve_banded((1, 1), ab, u)
        float(np.max(u))


# kernel and its time on a 2-vCPU Xeon guest (Python 3.11, numpy 2.4,
# scipy 1.17); the reference is a scale only: a metric reads as if
# measured while the kernel took that long
KERNELS = {"explicit": (_explicit, 0.01), "banded": (_banded, 0.01)}


def kernel_s(kind: str) -> float:
    """Seconds one run of a calibration kernel takes now."""
    fn = KERNELS[kind][0]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def slowdown(kind: str) -> float:
    """The host's slowdown now: median of three kernel runs over the reference."""
    return statistics.median(kernel_s(kind) for _ in range(3)) / KERNELS[kind][1]


class StepClock:
    """Times solver steps in segments, with the host's slowdown around each.

    ``tick`` is called once per solver step.  Every SEGMENT_STEPS steps it
    reads the kernel; the kernel's own time lies outside every segment and
    is summed in ``kernel_total``.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.reset()

    def reset(self):
        self.segments = []          # (steps, seconds, slowdown)
        self.kernel_total = 0.0
        self._start = None
        self._steps = 0
        self._last = 0.0

    def _read(self) -> float:
        t0 = time.perf_counter()
        s = kernel_s(self.kind) / KERNELS[self.kind][1]
        self.kernel_total += time.perf_counter() - t0
        return s

    def tick(self):
        if self._start is None:
            self._last = self._read()
            self._start, self._steps = time.perf_counter(), 0
            return
        self._steps += 1
        if self._steps == SEGMENT_STEPS:
            end = time.perf_counter()
            now = self._read()
            self.segments.append((self._steps, end - self._start, 0.5 * (self._last + now)))
            self._last = now
            self._start, self._steps = time.perf_counter(), 0

    def rates(self) -> list:
        """Steps per second of each segment, divided by its slowdown."""
        return [n * s / sec for n, sec, s in self.segments]

    def normalized_s(self, total_s: float) -> float | None:
        """total_s seconds of stepping, each segment divided by its own
        slowdown and the time outside segments by their median slowdown;
        None without any segment."""
        if not self.segments:
            return None
        inside = sum(sec for _, sec, _ in self.segments)
        median = statistics.median(s for _, _, s in self.segments)
        return sum(sec / s for _, sec, s in self.segments) + (total_s - inside) / median
