"""The benchmark's order statistics and the compare verdicts."""

import math
import statistics

import pytest

from compare import judge
from stats import (
    beyond,
    percentile,
    quartiles,
    spread,
    supported_percentile,
    with_failures,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_failures_are_infinite_and_sort_last():
    samples = with_failures([0.010, 0.020, 0.030], 2)
    assert samples.count(math.inf) == 2
    assert percentile(samples, 50) == 0.030
    assert percentile(samples, 80) == math.inf
    with pytest.raises(ValueError):
        with_failures([], -1)


def test_supported_percentile_keeps_ten_samples_beyond():
    # 366 ticks: p99 leaves 3 beyond, p95 leaves 18.
    assert beyond(366, 99) == 3
    assert beyond(366, 95) == 18
    assert supported_percentile(366) == 95
    assert supported_percentile(1000) == 99
    assert supported_percentile(10_000) == 99.9
    assert supported_percentile(100) == 90
    assert supported_percentile(19) is None
    for n in (20, 57, 366, 1000, 12345):
        q = supported_percentile(n)
        assert beyond(n, q) >= 10


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_judge_claims_a_gain_only_on_nine_of_ten_wins_beyond_the_iqr():
    parent = [100.0 + i for i in range(10)]
    change = [120.0 + i for i in range(10)]
    assert judge(parent, change, "higher", 0.10)["verdict"] == "gain"
    # Nine wins of ten still count; eight do not.
    nine = change[:9] + [parent[9] - 1]
    assert judge(parent, nine, "higher", 0.10)["wins"] == 9
    assert judge(parent, nine, "higher", 0.10)["verdict"] == "gain"
    eight = change[:8] + [parent[8] - 1, parent[9] - 1]
    assert judge(parent, eight, "higher", 0.10)["verdict"] != "gain"
    # More failures than the parent void the gain.
    assert judge(parent, change, "higher", 0.10, 0, 1)["verdict"] != "gain"


def test_judge_regression_unresolved_and_within_bound():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    slower = [v * 1.2 for v in parent]
    assert judge(parent, slower, "lower", 0.10)["verdict"] == "regression"
    same = list(reversed(parent))
    assert judge(parent, same, "lower", 0.10)["verdict"] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert judge(parent, noisy, "lower", 0.10)["verdict"] == "unresolved"
    # A metric reported without a bound is a gain or not gated.
    assert judge(parent, slower, "lower", None)["verdict"] == "not gated"
    faster = [v * 0.8 for v in parent]
    assert judge(parent, faster, "lower", None)["verdict"] == "gain"
