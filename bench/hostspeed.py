"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same physical cores change its speed by up to half, in phases that last
from seconds to minutes, so raw wall times of the same code differ by tens
of percent between runs.  The kernel below is timed right before and right
after every job, and several times around every set-up probe; the time is
then rescaled to the speed at which the kernel takes ``REF_S``:

    normalized = wall * REF_S / kernel_time

The kernel mixes pure-Python work, small numpy operations and gathered
products feeding a matrix multiply, as the package does (the last is the
shape of a Grassmann product), and it never changes, so a change in a normalized time is a
change in the program.  Raw wall times are printed and kept in the result
record beside the normalized ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal kernel time.  The kernel takes about this long on the 2-vCPU
# Intel Xeon host the benchmark was written on, so normalized times read
# close to raw wall times in that host's usual state.
REF_S = 1.5e-3

_MAT = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
_VEC = np.ones(4)
_RNG = np.random.default_rng(0)
_IA = _RNG.integers(0, 64, 729)
_IB = _RNG.integers(0, 64, 729)
_SCATTER = (_RNG.random((729, 64)) < 0.02) * 1.0
_X = _RNG.random((4, 64))


def kernel() -> float:
    """Fixed mix of interpreter-bound, small-array and gather-multiply work."""
    acc = 0.0
    table = {}
    for i in range(1500):
        acc += (i * i) % 7
        table[i & 63] = acc
    x = _VEC.copy()
    for _ in range(110):
        x = x + 0.001 * (_MAT @ x)
        x = x / np.sqrt(x @ x)
    y = _X
    for _ in range(12):
        y = (y[..., _IA] * y[..., _IB]) @ _SCATTER
        y = y / (1.0 + np.abs(y).max()) + _X
    return acc + float(x[0]) + float(y[0, 0])


def kernel_time(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalize(wall: float, before: float, after: float) -> float:
    """``wall`` rescaled to the host speed at which the kernel takes REF_S,
    using the kernel times measured just before and just after it."""
    return wall * REF_S / (0.5 * (before + after))
