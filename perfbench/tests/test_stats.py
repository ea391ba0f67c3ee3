"""The percentile rule and the spread arithmetic."""

import statistics

import pytest

from pbench.stats import (
    percentile,
    require_p99,
    samples_beyond,
    spread,
    tail_percentile,
    windowed_percentile,
    worse_by,
)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # the median has only 9 samples beyond it
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),  # p99 would leave only 9 beyond
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_require_p99_refuses_thin_tails_outside_smoke_runs():
    with pytest.raises(RuntimeError):
        require_p99("x", [1.0] * 999, smoke=False)
    assert require_p99("x", [1.0] * 999, smoke=True) == 1.0
    assert require_p99("x", [float(i) for i in range(1000)], smoke=False) == 989.0


def test_windowed_percentile_is_the_median_of_window_readings():
    timed = [(0.5, 1.0)] * 20 + [(1.5, 2.0)] * 20 + [(2.5, 9.0)] * 20
    value, windows = windowed_percentile(timed, 1.0, 50, smoke=False)
    assert (value, windows) == (2.0, 3)
    with pytest.raises(RuntimeError):
        windowed_percentile(timed, 1.0, 99, smoke=False)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    result = spread(values)
    assert result["q1"] == q1 and result["q3"] == q3
    assert result["spread"] == pytest.approx((q3 - q1) / statistics.median(values))


def test_worse_by_respects_direction():
    assert worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)
