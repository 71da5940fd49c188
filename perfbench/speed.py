"""Scaling measured times to a reference machine speed.

On a shared host the machine's speed drifts. On a 2-vCPU cloud machine it
switched every few seconds between a fast and a slow state, in which
pure-Python work ran 1.4-1.7x slower, and a 25 s run could spend most of its
time in either. So the benchmark times a fixed kernel of its own just
before, during (between set-up and work) and after each repetition, and
scales each part of the repetition to a machine on which a kernel call
takes REFERENCE_S. No bproc code runs in the kernel, so a change to the
program moves the scaled metrics as much as the measured ones.

The program's work did not slow down by the full factor the kernel did: its
time went as the kernel's slowdown to a power of 0.6-0.85 on that machine
(sequential and parallel campaigns, the diamonds set-up and campaign, the
loop), so the scaling uses SENSITIVITY. `bproc test` in a child process,
which also writes files, followed the kernel more loosely (correlation 0.23
against 0.8-0.9 in-process); a kernel that writes files followed it better
there, but its own time varied tenfold between quiet and busy periods, so
it is not used.
"""

from __future__ import annotations

import statistics
import time

CALLS = 5  # timed calls at each point
REFERENCE_S = 0.004  # a round figure near one call's time on that machine
SENSITIVITY = 0.7


def kernel() -> int:
    """Dict and list traffic, small objects and string formatting, as in an
    interpreter loop."""
    table: dict = {}
    recent: list = []
    total = 0
    for i in range(6000):
        key = ("n", i % 61)
        row = table.get(key)
        if row is None:
            row = table[key] = {"seen": 0, "last": None}
        row["seen"] += 1
        row["last"] = f"v{i % 7}" if i % 3 else i * 5 % 13
        recent.append((key, row["seen"]))
        if len(recent) > 32:
            total += sum(seen for _, seen in recent)
            recent.clear()
    return total


def time_kernel() -> list[float]:
    """Times of CALLS calls of the kernel."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def at_reference_speed(seconds: float, *around: list[float]) -> float:
    """A time measured between the kernel timings `around`, scaled to a
    machine on which a kernel call takes REFERENCE_S."""
    kernel_s = statistics.median([t for times in around for t in times])
    return seconds / (kernel_s / REFERENCE_S) ** SENSITIVITY
