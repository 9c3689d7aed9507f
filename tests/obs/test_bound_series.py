"""Bound series: ``Metric.labels`` children write through the same keyed
primitive as the keyword forms, make no series until a write succeeds,
and refuse what an instrument cannot hold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObsRecorder, render_prometheus
from repro.obs.energy import EnergyLedger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricSpec,
)

_COUNTER = MetricSpec(
    name="t_bound_total", kind="counter", help="c", labels=("a", "b")
)
_GAUGE = MetricSpec(name="t_bound_level", kind="gauge", help="g", labels=("a",))
_HIST = MetricSpec(
    name="t_bound_seconds",
    kind="histogram",
    help="h",
    labels=("a",),
    buckets=(0.0, 1.0, 2.5),
)

_LABEL = st.sampled_from(["x", "y", 'q"z', "3"])
_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.sampled_from(["1.5", None]),
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["inc", "set", "observe"]), _LABEL, _LABEL, _NUMBER),
    max_size=40,
)


def _registry():
    metrics = MetricRegistry()
    return (
        metrics,
        metrics.counter(_COUNTER),
        metrics.gauge(_GAUGE),
        metrics.histogram(_HIST),
    )


def _outcome(write):
    """What a write did: ``None``, or the type of what it raised."""
    try:
        write()
    except (TypeError, ValueError) as err:
        return type(err)
    return None


def _tables(counter, gauge, hist):
    return (
        [(k, v.hex() if isinstance(v, float) else v) for k, v in counter.series()],
        [(k, v.hex()) for k, v in gauge.series()],
        [(k, [x.hex() for x in s.observations]) for k, s in hist.series()],
    )


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS)
    def test_keyword_and_child_writes_leave_the_same_tables(self, ops):
        keyword = _registry()
        bound = _registry()
        children = {}
        for op, a, b, value in ops:
            _, counter, gauge, hist = keyword
            _, bcounter, bgauge, bhist = bound
            if op == "inc":
                want = _outcome(lambda: counter.inc(value, a=a, b=b))
                child = children.setdefault(
                    (op, a, b), bcounter.labels(a=a, b=b)
                )
                got = _outcome(lambda: child.inc(value))
            elif op == "set":
                want = _outcome(lambda: gauge.set(value, a=a))
                child = children.setdefault((op, a), bgauge.labels(a=a))
                got = _outcome(lambda: child.set(value))
            else:
                want = _outcome(lambda: hist.observe(value, a=a))
                child = children.setdefault((op, a), bhist.labels(a=a))
                got = _outcome(lambda: child.observe(value))
            assert got == want, (op, value)
        assert _tables(*keyword[1:]) == _tables(*bound[1:])
        assert render_prometheus(keyword[0]) == render_prometheus(bound[0])


class TestBindingMakesNoSeries:
    def test_an_unwritten_child_is_not_in_the_exposition(self):
        metrics, counter, gauge, hist = _registry()
        before = render_prometheus(metrics)
        counter.labels(a="x", b="y")
        gauge.labels(a="x")
        hist.labels(a="x")
        assert list(counter.series()) == []
        assert list(gauge.series()) == []
        assert list(hist.series()) == []
        assert render_prometheus(metrics) == before

    def test_a_written_child_has_its_series(self):
        _, counter, gauge, hist = _registry()
        counter.labels(a="x", b=2).inc(3)
        gauge.labels(a=7).set(np.float32(0.5))
        hist.labels(a="x").observe(np.int64(2))
        assert counter.value(a="x", b="2") == 3.0
        assert gauge.value(a="7") == 0.5
        assert hist.count(a="x") == 1

    def test_binding_validates_the_label_set(self):
        _, counter, _, _ = _registry()
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(a="x")

    @pytest.mark.parametrize("bad", [None, "1.0"])
    def test_a_failed_first_observe_through_a_child_keeps_none(self, bad):
        _, _, _, hist = _registry()
        child = hist.labels(a="x")
        with pytest.raises(TypeError):
            child.observe(bad)
        assert list(hist.series()) == []
        child.observe(1.0)
        with pytest.raises(TypeError):
            child.observe(bad)
        assert [list(s.observations) for _, s in hist.series()] == [[1.0]]


class TestRefusedWrites:
    @pytest.mark.parametrize("amount", [float("nan"), -1.0, -0.5e-300])
    def test_a_counter_refuses_nan_and_negative(self, amount):
        counter = Counter(_COUNTER)
        counter.inc(2.0, a="x", b="y")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(amount, a="x", b="y")
        with pytest.raises(ValueError, match="only go up"):
            counter.labels(a="x", b="y").inc(amount)
        assert counter.value(a="x", b="y") == 2.0
        assert not math.isnan(counter.total())

    @pytest.mark.parametrize("bad", ["1.5", b"1.5", None, [1.0], 1j])
    def test_a_gauge_refuses_what_is_not_a_real_number(self, bad):
        gauge = Gauge(_GAUGE)
        with pytest.raises(TypeError):
            gauge.set(bad, a="x")
        with pytest.raises(TypeError):
            gauge.labels(a="x").set(bad)
        assert list(gauge.series()) == []

    @pytest.mark.parametrize(
        "value",
        [np.float64(1.5), np.float32(1.5), np.int64(3), np.bool_(True), True, 2],
    )
    def test_a_gauge_keeps_numpy_scalars_and_ints_as_floats(self, value):
        gauge = Gauge(_GAUGE)
        gauge.set(value, a="x")
        gauge.labels(a="y").set(value)
        assert gauge.value(a="x") == gauge.value(a="y") == float(value)
        assert type(gauge.value(a="x")) is float

    def test_a_histogram_child_observes_like_the_keyword_form(self):
        one, two = Histogram(_HIST), Histogram(_HIST)
        for v in (0.5, float("nan"), 3.0):
            one.observe(v, a="x")
            two.labels(a="x").observe(v)
        assert _tables(Counter(_COUNTER), Gauge(_GAUGE), one) == _tables(
            Counter(_COUNTER), Gauge(_GAUGE), two
        )


class TestReadOnlyViews:
    @pytest.mark.parametrize(
        "spec",
        [series.spec for series in EnergyLedger().client_series()],
        ids=lambda spec: spec.name,
    )
    def test_writing_through_a_child_raises(self, spec):
        metrics = ObsRecorder().metrics
        child = metrics.get(spec.name).labels(client=0)
        write = child.set if spec.kind == "gauge" else child.inc
        with pytest.raises(TypeError, match="read from the energy ledger"):
            write(1.0)
        assert list(metrics.get(spec.name).series()) == []
