"""Order statistics shared by the harness, the tracer and the checks."""

from __future__ import annotations

import math
import statistics
from typing import Iterable


def median(values: Iterable[float]) -> float:
    """Median of ``values``; 0.0 for an empty sequence (an idle layer)."""
    data = list(values)
    return statistics.median(data) if data else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Infinite entries (failed operations) sort last, so a failure pushes
    every percentile it reaches to infinity: it misses every limit.
    """
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or data[high] == data[low]:
        return data[low]
    return data[low] + (data[high] - data[low]) * (rank - low)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0
