"""A fixed reference kernel that tracks the host's own speed.

On a shared virtual machine the host runs the same code 10-40% faster or
slower from one minute to the next, as neighbouring tenants come and go.
That drift moves every timing of a run together, and no amount of work
inside one run averages it away.  The benchmark times this kernel between
iterations and scales each iteration's host timings by :func:`speed` of
the mean of the two kernel times around it.  On ten-run sets taken while
the host drifted, that cut the spread between the quartiles of the
workloads' rates from 0.20-0.26 unscaled to 0.05-0.10.  Scaling a run's
median rate by the run's median kernel time did less, as the host's
speed also changes within a run.

The kernel mixes the kinds of work the workloads do (interpreter-bound
dict and list updates, small-array NumPy calls, CRC and a table gather
over a 1 MiB buffer) and calls no program code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import zlib
from time import perf_counter

import numpy as np

#: Median kernel time on the host the bounds were set on (2-vCPU x86 VM);
#: scaled metrics read as if every run had that host's speed.
NOMINAL_S = 0.010

#: Kernel passes per timing; the fastest is kept.
PASSES = 3


def speed(kernel_s: float) -> float:
    """How much faster than nominal the host ran, judged by the kernel."""
    return NOMINAL_S / kernel_s


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._buf = rng.integers(0, 256, size=1 << 20, dtype=np.uint8)
        self._table = rng.integers(0, 256, size=256, dtype=np.uint8)

    def seconds(self) -> float:
        """Host seconds of the fastest of ``PASSES`` passes of the kernel."""
        return min(self._pass() for _ in range(PASSES))

    def _pass(self) -> float:
        buf, table = self._buf, self._table
        t0 = perf_counter()
        counts: dict[int, int] = {}
        window: list[tuple[int, int]] = []
        for i in range(20_000):
            key = i & 511
            counts[key] = counts.get(key, 0) + i
            window.append((key, i))
            if len(window) > 64:
                window.pop(0)
        for _ in range(200):
            np.bitwise_xor(buf[:4096], buf[4096:8192])
        zlib.crc32(buf)
        table[buf]
        return perf_counter() - t0
