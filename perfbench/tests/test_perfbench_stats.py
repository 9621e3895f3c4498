"""The tail rule and the self-time arithmetic."""

import random

import pytest

from recorder import Span, covered, inclusive_time, self_time, self_times
from stats import TAIL_BEYOND, median_of_means, tail


@pytest.mark.parametrize("n", [11, 12, 20, 57, 100, 243, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    values = random.Random(n).sample(range(10 * n), n)
    value, pct, beyond = tail(values)
    assert beyond == TAIL_BEYOND
    assert sum(v > value for v in values) == TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


def test_tail_is_the_highest_such_percentile():
    # The next rank up would leave only nine samples beyond.
    values = list(range(1, 31))
    value, _, _ = tail(values)
    assert value == 20
    assert sum(v > value + 1 for v in values) == TAIL_BEYOND - 1


def test_tail_of_few_samples_is_the_median():
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_median_of_means_averages_each_key_first():
    # Means by key: a 1, b 6, c 4; the plain median of the values is 2.5.
    keys = ["a", "b", "c", "a", "b", "c"]
    values = [1.0, 10.0, 3.0, 1.0, 2.0, 5.0]
    assert median_of_means(keys, values) == 4.0


def test_covered_merges_overlaps():
    assert covered([(1, 4), (3, 6), (8, 9)]) == 6
    assert covered([]) == 0


def hand_built_tree():
    #   root 0..10
    #     a 1..4          (its child a1 2..3)
    #     b 3..6          (overlaps a)
    #   other 12..15      (a second root)
    return [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("other", 12.0, 15.0, None, 1),
    ]


def test_self_time_is_span_minus_child_coverage():
    spans = hand_built_tree()
    selfs = self_times(spans)
    # root: 10 minus the union of a and b (1..6) = 5
    assert selfs == [5.0, 2.0, 1.0, 3.0, 3.0]
    assert self_time(spans, selfs, ["root", "a"]) == 7.0


def test_inclusive_time_counts_nested_same_group_once():
    spans = hand_built_tree()
    assert inclusive_time(spans, ["root", "a"]) == 10.0
    assert inclusive_time(spans, ["a", "a1"]) == 3.0
    assert inclusive_time(spans, ["a1", "b", "other"]) == 7.0
