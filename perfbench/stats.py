"""Percentiles and run-to-run spread for the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: A percentile is reported only when at least this many samples of the
#: run lie beyond it; below that it would describe a handful of requests,
#: not a tail.
MIN_BEYOND = 10


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (``0 < pct <= 100``).

    The smallest sample such that at least *pct* percent of the samples
    are less than or equal to it.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    return sorted_values[max(_rank(pct, len(sorted_values)), 1) - 1]


def _rank(pct: float, n: int) -> int:
    # Decimal arithmetic: in binary floating point 99.9% of 1000 comes
    # out a hair above 999 and would round up to the maximum.
    return math.ceil(Fraction(str(pct)) * n / 100)


def samples_needed(pct: float) -> int:
    """The fewest samples for which *pct* has :data:`MIN_BEYOND` beyond
    it."""
    n = 1
    while n - _rank(pct, n) < MIN_BEYOND:
        n += 1
    return n


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }
