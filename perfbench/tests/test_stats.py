"""The percentile rule behind op_tail_s."""

import math

import pytest

from perfbench.stats import quartile_spread, tail_percentile


@pytest.mark.parametrize("n, percentile", [(20, 50), (32, 68), (100, 90), (1000, 99)])
def test_highest_percentile_keeps_ten_samples_beyond(n, percentile):
    values = [float(i) for i in range(1, n + 1)]
    p, value, beyond = tail_percentile(values)
    assert p == percentile
    assert beyond >= 10
    assert beyond == sum(v > value for v in values)
    # one percentile higher would leave fewer than ten samples beyond it
    assert n - math.ceil((p + 1) * n / 100) < 10


def test_too_few_samples_gives_no_tail():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([]) is None


def test_order_of_samples_does_not_matter():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
    assert tail_percentile(values) == tail_percentile(sorted(values))


def test_quartile_spread_matches_statistics_quantiles():
    q1, med, q3, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert spread == pytest.approx(5.5 / 5.5)
