"""``ClusterSpec.opp_table`` is computed once per range and count.

``quantize`` reads the table on every governor step, so the table is
cached; it must hold the values the per-call arithmetic gave.
"""

import pytest

from repro.device.registry import available_devices, build_spec
from repro.device.specs import ClusterSpec


def per_call_table(spec):
    """The per-call body the cache replaced."""
    if spec.n_opp == 1:
        return (spec.freq_max_ghz,)
    step = (spec.freq_max_ghz - spec.freq_min_ghz) / (spec.n_opp - 1)
    return tuple(spec.freq_min_ghz + i * step for i in range(spec.n_opp))


def clusters():
    for name in available_devices():
        yield from build_spec(name).clusters
    for n_opp in (1, 2, 7, 12):
        yield ClusterSpec("uni", 2, 0.3, 2.35, 4.0, n_opp=n_opp)


@pytest.mark.parametrize("spec", list(clusters()), ids=repr)
def test_the_table_holds_the_per_call_values(spec):
    table = spec.opp_table()
    assert [f.hex() for f in table] == [f.hex() for f in per_call_table(spec)]
    assert spec.opp_table() is table
    for freq in [0.0, *table, *(f + 1e-6 for f in table), 9.9]:
        want = next(
            (f for f in per_call_table(spec) if f >= freq - 1e-9),
            spec.freq_max_ghz,
        )
        assert spec.quantize(freq) == want


def test_an_integer_range_keeps_its_type():
    """``1`` and ``1.0`` hash alike; the cache must not hand one's
    table to the other."""
    floats = ClusterSpec("uni", 1, 1.0, 2.0, 1.0, n_opp=1).opp_table()
    ints = ClusterSpec("uni", 1, 1, 2, 1.0, n_opp=1).opp_table()
    assert type(floats[0]) is float and type(ints[0]) is int
