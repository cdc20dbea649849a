"""Summary statistics the ledger reports: medians, quartiles, supported
percentiles, geometric means and the open-loop send schedule.

Pure functions over plain lists, so ``test_ledger.py`` pins the rules
without running a workload.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from typing import Optional, Sequence

#: Percentiles the ledger may quote, lowest first, each with the N of
#: "one sample in N lies beyond it" (whole numbers: 10 000 samples support
#: p99.9 exactly, which 10000 * (100 - 99.9) / 100 in floats denies).
PERCENTILE_LADDER = (
    (50.0, 2), (90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000), (99.99, 10_000),
)

#: A percentile is quoted only when at least this many samples lie
#: beyond it; fewer and it is one outlier's opinion.
SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as the driver takes
    them (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def geometric_mean(values: Sequence[float]) -> float:
    """The mean that averages *ratios*: one query running twice as fast
    moves it as much as another running half as fast moves it back."""
    if not values or any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def highest_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile leaving >= ``SAMPLES_BEYOND`` samples
    beyond it, or ``None`` when even the median has fewer."""
    supported = None
    for p, one_in in PERCENTILE_LADDER:
        if count // one_in >= SAMPLES_BEYOND:
            supported = p
    return supported


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    # Rounded first: 10000 * 99.9 / 100 is 9990.000000000002 in floats.
    rank = max(1, math.ceil(round(len(ordered) * p / 100.0, 9)))
    return ordered[rank - 1]


def supported_percentile(values: Sequence[float], wanted: float) -> float:
    """``wanted``, lowered to the highest percentile the sample supports."""
    supported = highest_percentile(len(values))
    return percentile(values, min(wanted, supported or PERCENTILE_LADDER[0][0]))


# -- open-loop schedule ------------------------------------------------------


def due_times(count: int, rate: float, start: float) -> list[float]:
    """When each of ``count`` sends is *due* at ``rate`` per second.

    The schedule is fixed before the run: a slow system does not slow it
    down, which is what makes the loop open."""
    return [start + index / rate for index in range(count)]


def frames_due(due: Sequence[float], now: float) -> int:
    """How many sends of the schedule are due at ``now``."""
    return bisect_right(due, now)


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator itself ran, per send (never negative)."""
    return [max(0.0, at - when) for when, at in zip(due, sent)]


def delivery_latencies(
    due: Sequence[float], receipt: Sequence[Optional[float]]
) -> list[float]:
    """Due time -> receipt, for the sends that produced a receipt.

    Timing from the *due* time charges a stall to every send queued
    behind it, not only to the one that hit it."""
    return [got - when for when, got in zip(due, receipt) if got is not None]
