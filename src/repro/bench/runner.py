"""Timing protocol.

The paper (§3.2): "we ran each query 10 times, discarded the first run, and
report the mean query time".  :func:`warm_cache_time` implements exactly
that protocol (with a configurable run count so the full suite stays fast).
"""

from __future__ import annotations

import statistics
import time


def warm_cache_time(fn, runs=10, discard_first=True):
    """Mean wall-clock seconds of *fn* over warm-cache runs.

    Runs *fn* ``runs`` times, discards the first (cold) run when
    ``discard_first``, and returns ``(mean_seconds, samples)``.
    """
    samples = []
    for __ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    kept = samples[1:] if discard_first and len(samples) > 1 else samples
    return statistics.fmean(kept), samples

