"""A fixed piece of reference work whose time tracks the host's speed.

A shared host changes speed by tens of percent, and it can switch within
seconds. The benchmark times this kernel in the same process as the
measured calls, in a block just before each call. Each end-to-end timing is
then rescaled to a host on which the kernel takes `NOMINAL_S`:

    normalised = wall * NOMINAL_S / median(the blocks just before and just after the call)

The kernel mixes the program's kinds of work: a Python loop that splits and
parses CSV-like lines, `np.unique` on string labels, a float sort, and many
NumPy calls on 50-element arrays, as a small-n replication makes. It never
calls powergain, so no change to the program can move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time of the nominal host, in seconds: about the median on a
#: 2-vCPU Intel Xeon VM with Python 3.11.7 and NumPy 2.4.6.
NOMINAL_S = 0.022


class RefKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20240618)
        self.lines = [f"{x:.2f},{i % 997}" for i, x in enumerate(rng.normal(size=20_000).tolist())]
        self.labels = np.array([str(i % 5003) for i in range(40_000)])
        self.values = rng.random(1 << 18)
        self.small = rng.normal(size=50)
        self.samples: list[float] = []

    def run(self, times: int = 1) -> list[float]:
        """Runs the kernel `times` times; returns the times of this block."""
        block = []
        for _ in range(times):
            t0 = time.perf_counter()
            total = 0.0
            for line in self.lines:
                t, _ = line.split(",")
                total += float(t)
            np.unique(self.labels)
            np.sort(self.values)
            for _ in range(400):
                total += float(np.mean(np.abs(self.small) >= 1.96))
            block.append(time.perf_counter() - t0)
        self.samples += block
        return block


def normalise(timeline: list[tuple[float, list[float]]], after: list[float]) -> list[float]:
    """Rescale wall times to the nominal host.

    `timeline` holds (wall seconds, kernel block run just before) for each
    call in the order they ran; `after` is a block run after the last call.
    Each call is scaled by the median of its own block and the next one.
    """
    blocks = [block for _, block in timeline[1:]] + [after]
    return [wall * NOMINAL_S / statistics.median(before + nxt)
            for (wall, before), nxt in zip(timeline, blocks)]
