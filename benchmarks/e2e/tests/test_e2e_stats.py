"""The percentile picker, the spread and the compare verdicts."""

import statistics

import pytest

import stats


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    samples = list(range(1, 55))                 # the issue's 54 probe samples
    assert stats.percentile(samples, 80) == 44   # ten samples lie beyond rank 44
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(samples, 90)
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(1000)), 99) == 989


def test_median_is_always_answered_and_empty_is_refused():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_highest_supported_percentile_and_tail_fallback():
    assert stats.highest_supported_percentile(54) == 80
    assert stats.highest_supported_percentile(12000) == 99.9
    assert stats.highest_supported_percentile(6000) == 99
    assert stats.highest_supported_percentile(5) == 50
    value, used = stats.tail(list(range(1, 55)), 99)
    assert (value, used) == (44, 80)
    value, used = stats.tail(list(range(1, 55)), 80)
    assert (value, used) == (44, 80)


def test_spread_is_the_contracts_quartile_distance_over_the_median():
    values = [10.0, 10.5, 9.8, 10.2, 11.0, 10.1, 9.9, 10.3, 10.4, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.relative_spread([5.0]) == 0.0


def test_verdicts_follow_the_choosing_metrics_rule():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert stats.verdict(parent, [1.01, 1.00, 1.02, 0.99, 1.00], "lower", 0.10) == "same"
    assert stats.verdict(parent, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.10) == "worse"
    assert stats.verdict(parent, [0.80, 0.81, 0.79, 0.82, 0.80], "lower", 0.10) == "better"
    # the direction flips for a metric where higher is better
    assert stats.verdict(parent, [1.20, 1.21, 1.19, 1.22, 1.20], "higher", 0.10) == "better"
    # a spread wider than the bound cannot resolve a difference of that size...
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert stats.verdict(noisy, [1.1, 1.5, 0.8, 1.3, 1.0], "lower", 0.10) == "unresolved"
    # ...unless every run of one side beats every run of the other
    assert stats.verdict(noisy, [2.0, 2.4, 1.7, 2.2, 1.9], "lower", 0.10) == "worse"
    assert stats.verdict(noisy, [0.5, 0.6, 0.4, 0.55, 0.45], "lower", 0.10) == "better"


def test_failed_share_and_grouping():
    records = [
        {"workload": "w", "trace": 0, "attempted": 10, "failed": 1,
         "metrics": {"m": {"value": 1.0, "unit": "s"}}},
        {"workload": "w", "trace": 0, "attempted": 30, "failed": 0,
         "metrics": {"m": {"value": 3.0, "unit": "s"}}},
        {"workload": "w", "trace": 1, "attempted": 5, "failed": 0,
         "metrics": {"layer": {"value": 7.0, "unit": "s"}}},
    ]
    assert stats.failed_share(records[:2]) == pytest.approx(1 / 40)
    assert stats.group_runs(records, trace=0) == {"w": {"m": [1.0, 3.0]}}
    assert stats.group_runs(records, trace=1) == {"w": {"layer": [7.0]}}
