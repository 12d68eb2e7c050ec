"""The benchmark's own arithmetic: percentiles, tails, spreads, failures."""

from __future__ import annotations

import statistics

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile q, in integer tenths of a percent
    so that e.g. 99.9% of 10000 is rank 9990, not 9991."""
    return max(1, -(-round(q * 10) * count // 1000))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of samples <= it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def tail(values, min_beyond: int = TAIL_MIN_BEYOND):
    """The highest candidate percentile with at least ``min_beyond`` samples
    ranked beyond it, as ``(q, value, beyond)``; None when no candidate has.
    """
    count = len(values)
    for q in TAIL_PERCENTILES:
        beyond = count - _rank(q, count)
        if count and beyond >= min_beyond:
            return q, percentile(values, q), beyond
    return None


def interquartile_mean(values) -> float:
    """Mean of the middle half: the sorted values less the lowest and the
    highest quarter (n // 4 values each)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("interquartile mean of no samples")
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Outcomes:
    """Attempted and failed job counts, with the first reason per kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def record(self, kind: str, reason) -> None:
        """Count one job; ``reason`` is None when every check passed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.setdefault(kind, reason)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

