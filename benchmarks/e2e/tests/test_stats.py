import statistics

import pytest

import stats


def test_median_and_quartiles_match_the_driver_formula():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.median(values) == 4.0
    assert stats.quartiles(values) == (q1, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 4.0)


def test_single_sample_has_no_spread():
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.spread([2.5]) == 0.0
    row = stats.summarize([2.5])
    assert (row["median"], row["n"], row["values"]) == (2.5, 1, [2.5])


def test_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([])
