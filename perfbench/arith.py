"""The benchmark's own arithmetic: tail percentiles and run-set spread.

Kept free of ``repro`` imports so the self-tests and the comparison tool
run without the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported tail percentile must have at least this many samples
#: strictly beyond it, so one outlier cannot set it.
MIN_BEYOND_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing one that fewer than
    :data:`MIN_BEYOND_TAIL` samples lie beyond (p99 needs >= 1000)."""
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has only {beyond} beyond it; "
            f"need {MIN_BEYOND_TAIL}"
        )
    return percentile(samples, q)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them (the exclusive method)."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)
