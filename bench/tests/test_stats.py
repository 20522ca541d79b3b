import statistics

import pytest

from mcbench.stats import percentile, quartile_spread, summary


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 95) == 50
    assert percentile(values, 100) == 50
    # always an observed value, never interpolated, whatever the order
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.5, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartile_spread([7.0]) == 0.0


def test_summary():
    assert summary([3.0, 1.0, 2.0]) == {"value": 2.0, "min": 1.0, "max": 3.0}
