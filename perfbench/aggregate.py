"""Median and quartile aggregation shared by the runner and the steadiness check."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them.

    A single value is its own quartiles.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values to aggregate")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values) -> float:
    return quartiles(values)[1]


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
