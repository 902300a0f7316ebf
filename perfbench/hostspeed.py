"""A fixed reference computation that tells how fast the host runs now.

The 2-core sandbox the benchmark runs on shares its cores with other
machines' work, and its speed drifts: a fixed pure-Python loop has run
from 11 ms to 19 ms within three minutes, and whole workloads slowed by
half between two sets of runs of the same code.  No run length averages
out drift that slow.  So the times of interpreter-bound work (set-up,
and the operations of workloads marked ``host_scaled``) are scaled to a
nominal host:

    normalised = measured * NOMINAL_S / reference

where ``reference`` is this module's computation, timed next to the
measured work in the same process.  On a host where the reference takes
NOMINAL_S, normalised seconds are wall seconds.

The reference mixes the two kinds of work fransonsim does: interpreted
Python (dict traffic, small-int arithmetic, integer formatting, as in
click-file writing and the closed form) and numpy (random draws, a
merge sort of int64 timestamps, searchsorted, bincount, as in the
engine and the histogram).  It uses no fransonsim code, so a change to
the package never moves it.  It must never change either: a change
here rescales every scaled time the benchmark reports.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference time, in seconds, of the nominal host.
NOMINAL_S = 0.07


def _interpreter_work() -> int:
    table = {}
    total = 0
    for i in range(120_000):
        key = i % 251
        table[key] = table.get(key, 0) + i
        total += len("%d" % (i * 7919))
    return total + sum(table.values())


def _numpy_work() -> int:
    # small arrays keep the reference's own memory under a megabyte
    rng = np.random.default_rng(20071204)
    peak = 0
    for _ in range(40):
        starts = np.cumsum(rng.exponential(1000.0, 10_000)).astype(np.int64)
        stops = starts + rng.normal(0.0, 50.0, starts.size).astype(np.int64)
        merged = np.sort(np.concatenate((starts, stops)))
        index = np.searchsorted(merged, starts)
        peak = max(peak, int(np.bincount(index % 1024).max()))
    return peak


def reference_s(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` passes of the reference."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _interpreter_work()
        _numpy_work()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scale(reference: float) -> float:
    """Factor that turns seconds measured beside ``reference`` into
    nominal-host seconds."""
    return NOMINAL_S / reference
