"""Percentiles and sample-count rules used by the benchmark."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation between
    closest ranks, the rule of statistics.quantiles(method="inclusive")."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """Number of samples strictly above the q-th percentile rank of n
    samples."""
    return n - 1 - math.floor((n - 1) * q / 100)


def min_samples(q: float, k: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves at least k samples beyond the q-th
    percentile."""
    n = 1
    while beyond(n, q) < k:
        n += 1
    return n


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
