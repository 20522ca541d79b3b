"""Order statistics used by the harness and by ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` % of
    the sample at or below it (``q`` in (0, 100]).  No interpolation, so the
    result is always an observed value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """A metric over a handful of repeats: the reported ``value`` is their
    median unless the caller refines it, with ``min`` and ``max`` beside it."""
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median
    (the contract's steadiness measure).  0.0 for fewer than two values or a
    zero median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
