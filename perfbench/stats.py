"""Summary statistics with the sample-count rules the benchmark reports by."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer make it a max in disguise, which does not repeat.
MIN_BEYOND = 10


def nearest_rank(samples, q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the nearest-rank rule."""
    ordered = sorted(samples)
    k = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[k - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND):
    """The highest whole percentile above 50 with ``min_beyond`` samples
    beyond it in a set of ``n``, or ``None`` when none qualifies."""
    for q in range(99, 50, -1):
        if beyond(n, q) >= min_beyond:
            return q
    return None


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cluster_margin(clusters, q: float) -> float:
    """Distance, in percentile points, from ``q`` to the nearest boundary
    between the fast and the slow cluster of an op mix.

    ``clusters`` is a list of ``(fraction, is_fast)`` pairs; every fast op
    is assumed quicker than every slow one, so the boundary sits at the
    summed fraction of the fast ops.
    """
    fast = sum(frac for frac, is_fast in clusters if is_fast)
    total = sum(frac for frac, _ in clusters)
    return abs(q - 100.0 * fast / total)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
