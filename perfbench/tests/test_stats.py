"""The percentile rule and the yardstick's determinism."""

import pytest

from perfbench.stats import highest_percentile, percentile
from perfbench.yardstick import Yardstick, block_yardsticks


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 90.0) == 90  # ten samples beyond it
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 100.0) == 100
    assert percentile([7.0], 90.0) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_yardstick_work_is_fixed():
    a, b = Yardstick(), Yardstick()
    assert a.kernel() == b.kernel() == a.kernel()
    assert a.read() > 0.0


def test_block_yardsticks_average_the_bracketing_readings():
    blocks, drift_pct = block_yardsticks([10.0, 12.0, 12.0, 11.0])
    assert blocks == [11.0, 12.0, 11.5]
    assert drift_pct == pytest.approx((12.0 / 11.0 - 1.0) * 100.0)
