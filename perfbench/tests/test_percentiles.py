"""Percentiles are only reported when the sample supports them."""

import pytest

from common import TooFewSamples, pct_ms, percentile


@pytest.mark.parametrize("q, need", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, need):
    percentile([0.0] * need, q)
    with pytest.raises(TooFewSamples):
        percentile([0.0] * (need - 1), q)


def test_percentile_values():
    samples = [float(i) for i in range(1, 1001)]  # 1..1000
    assert percentile(samples, 50) == pytest.approx(500.5)
    assert percentile(samples, 99) == pytest.approx(990.01)
    assert percentile(list(reversed(samples)), 90) == pytest.approx(900.1)


def test_failed_requests_count_as_missing_the_limit():
    samples = [0.01] * 985 + [float("inf")] * 15
    assert percentile(samples, 99) == float("inf")
    assert percentile(samples, 50) == pytest.approx(0.01)


def test_unsupported_percentile_reads_zero_in_ms():
    assert pct_ms([0.002] * 99, 90) == 0.0
    assert pct_ms([0.002] * 100, 90) == pytest.approx(2.0)
