"""Order statistics used by the end-to-end metrics."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values) -> tuple:
    """The value at the highest percentile that has at least TAIL_BEYOND
    samples beyond it, as (value, percentile, samples beyond).

    With n sorted samples that is the one at rank n - TAIL_BEYOND
    (nearest-rank percentile 100 * (n - TAIL_BEYOND) / n), so exactly
    TAIL_BEYOND samples lie above its rank. With fewer than
    TAIL_BEYOND + 1 samples no percentile qualifies and the median stands in.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return statistics.median(s), 50.0, n // 2
    rank = n - TAIL_BEYOND
    return s[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def median_of_means(keys, values) -> float:
    """The median, over distinct keys, of the mean of each key's values.

    With the key an op's place in a cycle that repeats, each op's time is
    averaged over the whole run before the median is taken, so a stretch
    in which the machine runs slow raises every op's time by its share of
    the run instead of moving whole ops from one side of the median to the
    other.
    """
    groups: dict = {}
    for k, v in zip(keys, values):
        groups.setdefault(k, []).append(v)
    return statistics.median(statistics.mean(g) for g in groups.values())
