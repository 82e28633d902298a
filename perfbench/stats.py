"""Order statistics shared by the end-to-end and per-layer reports."""

import math
from typing import Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile, which must leave ``MIN_BEYOND`` samples beyond it."""
    assert beyond(len(values), pct) >= MIN_BEYOND, (len(values), pct)
    return percentile(values, pct)
