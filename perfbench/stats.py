"""Order statistics used by the benchmark and by its repeat script."""

from __future__ import annotations

import math
import statistics


def tail_percentile(values, beyond: int = 10):
    """Highest integer percentile that still has ``beyond`` samples ranked above it.

    Percentiles use the nearest-rank rule: the p-th percentile of n sorted
    samples is the sample at rank ceil(p * n / 100). Only p = 50..99 are
    considered. Returns ``(p, value, samples_beyond)``, or ``None`` when even
    the median has fewer than ``beyond`` samples above it (n < 2 * beyond).
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1], n - rank
    return None


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) as ``statistics.quantiles(n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else math.inf
