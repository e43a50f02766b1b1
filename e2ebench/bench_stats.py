"""Summary statistics of the benchmark's samples."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (linear interpolation) and the sample count."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, len(ordered)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
