"""Order statistics the benchmark reports: median and the tail a sample supports."""

from __future__ import annotations

import math
import statistics

#: candidate tail percentiles, lowest first; :func:`tail_percentile`
#: returns the highest one a sample supports.
_LADDER = (90.0, 95.0, 99.0, 99.9)

#: a percentile is reported only with this many samples beyond it.
_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """The ``p``-th percentile by nearest rank (an observed sample)."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return float(ordered[max(0, min(len(ordered), rank) - 1)])


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= 10 of ``count`` samples beyond it.

    ``None`` below 100 samples: there even p90 leaves fewer than ten.
    """
    best = None
    for p in _LADDER:
        # 1e-9: (1 - 99.9/100) * 10000 is 9.99999... in binary floats
        if count * (1.0 - p / 100.0) + 1e-9 >= _MIN_BEYOND:
            best = p
    return best


def summarize(values) -> dict:
    """Median, sample count and the supported tail of one timing series."""
    out = {"median": median(values), "count": len(values), "tail_p": None, "tail": None}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out
