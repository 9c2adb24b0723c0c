"""Reference-speed timing for a shared host.

The benchmark host is shared with other tenants, and its speed drifts by
tens of percent within minutes, so raw wall times of the same work spread
too widely across runs to bound a regression. While timed work runs, a
SIGALRM timer takes a short calibration sample every INTERVAL_S seconds: a
fixed pure-Python loop. The work's reference time is its wall time, less the
time spent sampling, scaled by REF_SAMPLE_S over the median sample: the time
it would take with the interpreter at its reference speed.

On the 2-core reference host the samples tracked the slowdowns of the work
they interrupted (correlation 0.68 to 0.98 between consecutive ops and
their samples on each workload), better than samples of small NumPy
operations, whose swings were twice the work's. The scaling cut the quartile
spread of consecutive op times from 0.22 to 0.06 of the median on
`gradcheck`, 0.17 to 0.06 on `generate_long` and 0.25 to 0.19 on `train`.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.25
EDGE_SAMPLES = 4  # taken before the work starts, so short work has samples too
SAMPLE_ITERATIONS = 25_000

# About the tenth percentile of sample() times on the reference host (2-core
# x86-64 VM, Python 3.11.7), so reference seconds read close to wall
# seconds on a quiet host.
REF_SAMPLE_S = 0.002


def sample() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SAMPLE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def timed(fn, sampling: bool = True):
    """Run fn(); return (result, wall seconds, reference seconds).

    With sampling off (traced runs, whose spans must not absorb samples)
    both times are the plain wall time.
    """
    if not sampling:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        return result, elapsed, elapsed
    samples = [sample() for _ in range(EDGE_SAMPLES)]
    inner: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: inner.append(sample()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    wall = elapsed - sum(inner)
    return result, wall, wall * REF_SAMPLE_S / statistics.median(samples + inner)
