"""Order statistics for job timings.

A timing is reported as its median and as the highest percentile that
still has at least :data:`MIN_BEYOND` samples above it, together with the
sample count, so a tail figure is never read off one or two outliers.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Candidate tail percentiles, highest first.  There is no p90: a
#: sweep-warm run makes 40 to 200 jobs depending on the host's speed,
#: and one percentile across that range keeps runs comparable.
LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated *p*-th percentile (inclusive method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count: int, p: float) -> int:
    """How many of *count* samples lie above the *p*-th percentile."""
    return math.floor(count * (1.0 - p / 100.0) + 1e-9)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The tail percentile of *values* by the ten-beyond rule.

    Returns ``{"value", "percentile", "beyond", "count"}``.  With fewer
    than twenty samples no percentile qualifies; the maximum is then
    reported as percentile 100 with nothing beyond it.
    """
    count = len(values)
    for p in LADDER:
        above = beyond(count, p)
        if above >= MIN_BEYOND:
            return {"value": percentile(values, p), "percentile": p,
                    "beyond": above, "count": count}
    return {"value": max(values), "percentile": 100.0, "beyond": 0,
            "count": count}
