"""Order statistics shared by the benchmark and its steadiness helper."""

from __future__ import annotations

import math
import statistics

#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the ``q`` percentile of ``n`` samples."""
    return n - 1 - math.floor(q * (n - 1))


def percentile(values: list[float], q: float) -> float:
    """The ``q`` percentile (0 < q < 1), linearly interpolated between ranks.

    Raises ValueError unless at least :data:`MIN_BEYOND` samples lie
    beyond it, so a tail figure always rests on a tail.
    """
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has fewer than {MIN_BEYOND} beyond it"
        )
    ordered = sorted(values)
    rank = q * (n - 1)
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and IQR/median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else math.inf,
    }
