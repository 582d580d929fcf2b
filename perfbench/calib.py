"""Calibration kernel: a fixed piece of work that calls nothing in robokit.

The host's speed drifts by tens of percent between time slices on a shared
machine. Timing this kernel between the steps of every measured interval and
scaling each step by REFERENCE_S / kernel time converts host seconds into
reference seconds, so two runs taken at different moments agree far better
than their raw times do. The kernel mixes the same kinds of work robokit
spends its time in: scalar Python arithmetic and attribute access, element
reads and writes of numpy grids, numpy calls on 3-vectors and 3x3 matrices,
and vector passes over arrays that fit in the cache and arrays that do not.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median kernel time (s) on the reference machine; see README.md. A constant,
# so calibrated figures from different runs and commits share one scale.
REFERENCE_S = 0.002


class _State:
    __slots__ = ("x", "y", "theta")

    def __init__(self, x, y, theta):
        self.x, self.y, self.theta = x, y, theta


def kernel() -> float:
    s = _State(0.0, 0.0, 0.0)
    acc = 0.0
    for i in range(600):
        w = 0.3 * math.sin(0.02 * i)
        s = _State(s.x + 0.05 * math.cos(s.theta), s.y + 0.05 * math.sin(s.theta),
                   math.remainder(s.theta + 0.05 * w, 2.0 * math.pi))
        acc += math.hypot(s.x, s.y)
    # element-wise reads and writes of numpy grids, like grid planning loops
    g = np.zeros((40, 40), dtype=np.int64)
    for i in range(1, 40):
        for j in range(1, 8):
            g[i, j] = min(g[i - 1, j] + 3, g[i, j - 1] + 4)
    acc += float(g[39, 7])
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    v = np.array([0.1, 0.2, 0.3])
    for _ in range(80):
        v = np.clip(R @ v + 0.001, -1.0, 1.0)
        acc += float(np.dot(v, v))
    a = np.linspace(0.0, 1.0, 4000)
    acc += float(np.sqrt(a * a + 1.0).sum())
    # memory-bound pass over arrays larger than the L2 cache, like rendering
    # and clustering a point cloud
    b = np.linspace(0.0, 1.0, 40000)
    acc += float(np.sqrt(b * b + 1.0).sum())
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Times work in segments separated by kernel samples.

    The host's speed drifts over tenths of a second, so a workload calls
    tick() between its steps (every few tens of milliseconds of work): each
    segment is scaled by the mean of the kernel times measured at its two
    ends. Kernel time itself is not counted as work.
    """

    def __init__(self):
        self.raw = 0.0            # host seconds of work
        self.calibrated = 0.0     # reference seconds of work
        self.kernels: list[float] = []
        self._t = None

    def start(self) -> None:
        self.kernels.append(kernel_seconds())
        self._t = time.perf_counter()

    def tick(self) -> None:
        seg = time.perf_counter() - self._t
        k = kernel_seconds()
        self.raw += seg
        self.calibrated += seg * REFERENCE_S / (0.5 * (self.kernels[-1] + k))
        self.kernels.append(k)
        self._t = time.perf_counter()


def timed(fn):
    """Run fn(clock) on a fresh clock: (result, clock) after a final tick."""
    clock = Clock()
    clock.start()
    out = fn(clock)
    clock.tick()
    return out, clock
