"""The tail percentile the benchmark reports."""

from __future__ import annotations

import math

# Percentiles a tail can be reported at; the highest one that leaves
# TAIL_BEYOND samples above it is used.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10


def _position(n: int, pct: float) -> float:
    # 0-based position of the pct-th percentile among n sorted samples; the
    # rounding keeps 99.9% of 10000 samples at 9989.001, not a hair above
    return round((n - 1) * pct / 100.0, 9)


def percentile(sorted_values, pct: float) -> float:
    """pct-th percentile of a sorted, non-empty sequence, linearly
    interpolated between neighbouring samples (numpy's default)."""
    pos = _position(len(sorted_values), pct)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def beyond(n: int, pct: float) -> int:
    """Samples of n that lie strictly above the pct-th percentile's position."""
    return n - 1 - math.floor(_position(n, pct))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least TAIL_BEYOND of n beyond.

    With fewer than 2 * TAIL_BEYOND samples no ladder step qualifies and the
    median is used; the caller records how many samples lie beyond it.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= TAIL_BEYOND:
            best = pct
    return best


def tail(values, pass_size: int):
    """(value, percentile, samples beyond) for the tail of a run's latencies.

    The percentile is chosen for one pass over the workload's inputs, not
    for the run's op count, so every run of a workload, on every version of
    the program, reports the same percentile.  A run is made of whole
    passes, so at least as many samples lie beyond it in the run.
    """
    s = sorted(values)
    pct = tail_percentile(pass_size)
    return percentile(s, pct), pct, beyond(len(s), pct)
