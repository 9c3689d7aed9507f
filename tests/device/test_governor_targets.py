"""``InteractiveGovernor.select`` computes each cluster's hispeed target
and top OPP once, and returns that top OPP without a ``quantize``
bisection once the request reaches ``freq_max_ghz``.

The body it replaced lives here as the reference (``_retired_select``):
every request and every ``_time_above`` entry must come out as it did,
bit for bit, over the registered clusters and generated ones, loads on
both sides of ``go_hispeed_load``, NaN and infinite frequencies, and a
``reset()`` or a ``deepcopy`` mid-run.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import ClusterSpec, available_devices, build_spec
from repro.device.governor import InteractiveGovernor

REGISTERED = tuple(
    c for name in available_devices() for c in build_spec(name).clusters
)


def _retired_select(gov, time_above, cluster, load, current_ghz, dt):
    """``InteractiveGovernor.select`` as it was, on its own
    ``time_above`` dict."""
    hispeed = (
        cluster.freq_min_ghz
        + gov.hispeed_fraction * (cluster.freq_max_ghz - cluster.freq_min_ghz)
    )
    above = time_above.get(cluster.name, 0.0)
    if load >= gov.go_hispeed_load:
        above += dt
        time_above[cluster.name] = above
        request = max(current_ghz, hispeed)
        if above >= gov.above_hispeed_delay_s:
            request = min(
                cluster.freq_max_ghz,
                max(request, current_ghz) + gov.ramp_rate_ghz_per_s * dt,
            )
    else:
        time_above[cluster.name] = 0.0
        request = max(
            cluster.freq_min_ghz,
            current_ghz * load / gov.target_load,
        )
    return cluster.quantize(min(request, cluster.freq_max_ghz))


def test_the_top_opp_is_not_always_freq_max():
    # why the cached top is quantize(freq_max_ghz), not freq_max_ghz
    off = {
        (name, c.name)
        for name in available_devices()
        for c in build_spec(name).clusters
        if c.quantize(c.freq_max_ghz) != c.freq_max_ghz
    }
    assert {("mate10", "big"), ("nexus6p", "little"), ("pixel2", "big")} <= off


_GHZ = st.floats(0.3, 3.0).map(lambda f: round(f, 2))


@st.composite
def _clusters(draw):
    """A cluster whose range ends on a two-decimal frequency, so its
    top OPP often differs from ``freq_max_ghz`` by rounding."""
    lo, hi = sorted((draw(_GHZ), draw(_GHZ)))
    return ClusterSpec(
        name=draw(st.sampled_from(("big", "little", "uni"))),
        n_cores=4,
        freq_min_ghz=lo,
        freq_max_ghz=hi,
        gflops_per_core_ghz=1.0,
        n_opp=draw(st.integers(1, 16)),
    )


_CURRENT = st.one_of(
    st.floats(0.0, 3.5),
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0)),
)

_STEP = st.one_of(
    st.tuples(
        st.just("select"),
        st.integers(0, 7),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.85, 1.0, 0.0))),
        _CURRENT,
        st.sampled_from((0.01, 0.02, 0.05)),
    ),
    st.tuples(st.just("reset")),
    # a deepcopy of the governor alone, or of it with its clusters (as
    # ``time_for_workload`` copies a whole device)
    st.tuples(st.just("deepcopy"), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(
    generated=st.lists(_clusters(), min_size=1, max_size=4),
    registered=st.lists(st.sampled_from(REGISTERED), min_size=1, max_size=4),
    go_hispeed_load=st.sampled_from((0.85, 0.5, 1.0)),
    hispeed_fraction=st.sampled_from((0.8, 0.0, 1.0, 0.37)),
    delay=st.sampled_from((0.04, 0.0, 0.1)),
    target_load=st.sampled_from((0.9, 0.5, 1.0)),
    ramp=st.sampled_from((8.0, 0.5, 100.0)),
    steps=st.lists(_STEP, min_size=1, max_size=60),
)
def test_select_equals_the_retired_body(
    generated, registered, go_hispeed_load, hispeed_fraction, delay,
    target_load, ramp, steps,
):
    clusters = (*generated, *registered)
    gov = InteractiveGovernor(
        go_hispeed_load=go_hispeed_load,
        hispeed_fraction=hispeed_fraction,
        above_hispeed_delay_s=delay,
        target_load=target_load,
        ramp_rate_ghz_per_s=ramp,
    )
    time_above = {}
    for step in steps:
        if step[0] == "reset":
            gov.reset()
            time_above.clear()
        elif step[0] == "deepcopy":
            if step[1]:
                gov, clusters = copy.deepcopy((gov, clusters))
            else:
                gov = copy.deepcopy(gov)
        else:
            _, i, load, current, dt = step
            cluster = clusters[i % len(clusters)]
            got = gov.select(cluster, load, current, dt)
            want = _retired_select(gov, time_above, cluster, load, current, dt)
            assert got.hex() == want.hex()
        assert {k: v.hex() for k, v in gov._time_above.items()} == {
            k: v.hex() for k, v in time_above.items()
        }
