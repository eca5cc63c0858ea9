"""Median / quartile helpers shared by the runner and ``compare.py``.

Quartiles follow ``statistics.quantiles(values, n=4)`` (exclusive
method) because that is what the acceptance driver computes; a sample
of one has no spread, so its quartiles collapse onto the value.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` of ``values``; both equal the value for one sample."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when median is 0)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """The sample description every report row carries."""
    q1, q3 = quartiles(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": [float(v) for v in values],
    }
