"""Percentiles and run summaries: the only place the benchmark computes them.

Latency percentiles use the nearest-rank rule — the ``ceil(f·n)``-th
smallest sample — and refuse to answer when fewer than
:data:`MIN_TAIL` samples lie beyond the requested rank: a p95 over 60
samples would be one request, not a percentile.  Every value carries its
sample count so the printout can show it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "MIN_TAIL",
    "Measured",
    "ThinTailError",
    "median_of",
    "percentile",
    "spread_share",
]

#: Samples that must lie beyond a percentile's rank before it is reported.
MIN_TAIL = 10


class ThinTailError(ValueError):
    """A percentile was requested that the sample cannot support."""


@dataclass(frozen=True)
class Measured:
    """A reported value with the number of samples behind it."""

    value: float
    n: int


def percentile(values: Sequence[float], fraction: float) -> Measured:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1)).

    Raises :class:`ThinTailError` when fewer than :data:`MIN_TAIL` samples
    lie beyond the rank, instead of returning a number.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction!r}")
    n = len(values)
    # round() absorbs binary-fraction noise such as 0.95 * 200 = 190.00…01.
    rank = max(1, math.ceil(round(fraction * n, 9)))
    beyond = n - rank
    if beyond < MIN_TAIL:
        raise ThinTailError(
            f"p{fraction * 100:g} of {n} samples has {beyond} beyond rank "
            f"{rank}; at least {MIN_TAIL} are required"
        )
    return Measured(sorted(values)[rank - 1], n)


def median_of(values: Sequence[float]) -> Measured:
    """Median of a few whole-run repeats (set-up times, passes).

    Repeats are not a latency distribution; the median here is the
    ordinary one (mean of the middle pair for even counts).
    """
    if not values:
        raise ValueError("median of no values")
    return Measured(statistics.median(values), len(values))


def spread_share(values: Sequence[float]) -> float:
    """Quartile distance over the median, as the acceptance check takes it.

    Uses ``statistics.quantiles(values, n=4)`` (exclusive method), the
    same computation applied to a set of runs when the benchmark is
    judged.
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)
