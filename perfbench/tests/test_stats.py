"""Percentiles and the sample-count rule."""

import math

import pytest

from perfbench.stats import (
    beyond,
    describe,
    percentile,
    supported,
)


def test_nearest_rank_picks_an_observed_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.9) == 5.0
    assert percentile(list(range(1, 101)), 0.9) == 90


def test_a_failed_operation_is_infinitely_slow():
    values = [1.0] * 95 + [math.inf] * 5
    assert percentile(values, 0.9) == 1.0
    assert percentile(values, 0.99) == math.inf
    values = [1.0] * 85 + [math.inf] * 15
    assert percentile(values, 0.9) == math.inf


@pytest.mark.parametrize(
    "n, q, expected",
    [(100, 0.9, True), (99, 0.9, False), (20, 0.5, True), (19, 0.5, False),
     (1000, 0.99, True), (999, 0.99, False), (0, 0.5, False)],
)
def test_a_percentile_needs_ten_samples_beyond_it(n, q, expected):
    assert supported(n, q) is expected


def test_samples_beyond_a_percentile():
    assert beyond(100, 0.9) == 10
    assert beyond(108, 0.9) == 10
    assert beyond(24, 0.9) == 2


def test_describe_flags_unsupported_percentiles_and_states_the_count():
    text = describe([float(i) for i in range(30)], [0.5, 0.9])
    assert text == "p50=14.00 p90=26.00(unsupported, 3 beyond) n=30"


def test_empty_samples_are_refused():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)
