"""Order statistics for per-operation timings.

A percentile is reported only when at least MIN_TAIL samples lie beyond
it; otherwise the run states that the figure is not supported by its
sample count.
"""
from __future__ import annotations

import math
from typing import Sequence

MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks, rank (n - 1) q."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_count(n: int, q: float) -> int:
    """Samples strictly above the rank that percentile(q) interpolates from."""
    if n < 1:
        return 0
    return n - 1 - math.floor((n - 1) * q)


def supported(n: int, q: float) -> bool:
    """The percentile rule: at least MIN_TAIL samples beyond the percentile."""
    return tail_count(n, q) >= MIN_TAIL


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)
