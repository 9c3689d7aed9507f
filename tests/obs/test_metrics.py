"""Metric primitives: specs, catalog, instruments, registry."""

import pytest

from repro.obs import catalog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricSpec,
    available_metrics,
    metric_spec,
    register_metric,
)


class TestMetricSpec:
    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="metric name"):
            MetricSpec(name="Bad-Name", kind="counter", help="x")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MetricSpec(name="ok_name", kind="summary", help="x")

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            MetricSpec(
                name="ok_name", kind="gauge", help="x", labels=("Bad!",)
            )

    def test_buckets_only_on_histograms(self):
        with pytest.raises(ValueError, match="histograms"):
            MetricSpec(
                name="ok_name", kind="counter", help="x", buckets=(1.0,)
            )

    def test_buckets_must_be_sorted_distinct(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricSpec(
                name="ok_name",
                kind="histogram",
                help="x",
                buckets=(2.0, 1.0),
            )
        with pytest.raises(ValueError, match="distinct"):
            MetricSpec(
                name="ok_name",
                kind="histogram",
                help="x",
                buckets=(1.0, 1.0),
            )


class TestCatalogRegistration:
    def test_reregistering_identical_spec_is_noop(self):
        spec = catalog.ROUNDS_TOTAL
        again = register_metric(
            spec.name, spec.kind, spec.help, labels=spec.labels,
            unit=spec.unit, buckets=spec.buckets,
        )
        assert again == spec

    def test_conflicting_spec_is_an_error(self):
        with pytest.raises(ValueError, match="different spec"):
            register_metric(
                catalog.ROUNDS_TOTAL.name, "gauge", "not a counter"
            )

    def test_lookup_and_listing(self):
        assert metric_spec("repro_rounds_total") == catalog.ROUNDS_TOTAL
        names = available_metrics()
        assert names == tuple(sorted(names))
        assert "repro_battery_soc" in names
        with pytest.raises(KeyError, match="unknown metric"):
            metric_spec("no_such_metric")

    def test_catalog_covers_every_engine_surface(self):
        """The catalog names the paper's three stories: time, energy,
        scheduling."""
        names = set(available_metrics())
        assert {
            "repro_round_makespan_seconds",
            "repro_client_energy_joules_total",
            "repro_battery_soc",
            "repro_schedule_solves_total",
        } <= names


class TestCounter:
    def test_inc_and_series(self):
        c = Counter(catalog.CLIENT_ROUNDS_TOTAL)
        c.inc(client=2)
        c.inc(client=0)
        c.inc(2.0, client=0)
        assert c.value(client=0) == pytest.approx(3.0)
        assert c.value(client=5) == 0.0
        assert list(c.series()) == [(("0",), 3.0), (("2",), 1.0)]
        assert c.total() == pytest.approx(4.0)

    def test_negative_increment_rejected(self):
        c = Counter(catalog.ROUNDS_TOTAL)
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_label_set_is_enforced(self):
        c = Counter(catalog.CLIENT_ROUNDS_TOTAL)
        with pytest.raises(ValueError, match="takes labels"):
            c.inc()
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(client=1, extra="nope")


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge(catalog.BATTERY_SOC)
        g.set(0.9, client=1)
        g.set(0.7, client=1)
        assert g.value(client=1) == pytest.approx(0.7)
        assert g.value(client=2) is None


class TestHistogram:
    def test_cumulative_buckets_and_exact_quantiles(self):
        spec = register_metric(
            "test_obs_hist_seconds",
            "histogram",
            "test histogram",
            buckets=(1.0, 5.0, 10.0),
        )
        h = Histogram(spec)
        for v in (0.5, 2.0, 7.0, 20.0):
            h.observe(v)
        ((_labels, series),) = list(h.series())
        # cumulative Prometheus semantics: le=1 -> 1, le=5 -> 2, le=10 -> 3
        assert series.bucket_counts == [1, 2, 3]
        assert h.count() == 4
        assert h.sum() == pytest.approx(29.5)
        assert h.quantile(0.0) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(20.0)
        assert h.quantile(0.5) in (2.0, 7.0)

    def test_quantile_of_empty_series_is_none(self):
        h = Histogram(catalog.ROUND_MAKESPAN_SECONDS)
        assert h.quantile(0.5) is None
        with pytest.raises(ValueError, match="q must be"):
            h.quantile(1.5)


class TestMetricRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricRegistry()
        a = reg.counter(catalog.ROUNDS_TOTAL)
        b = reg.counter("repro_rounds_total")
        assert a is b
        assert "repro_rounds_total" in reg
        assert reg.get("repro_rounds_total") is a

    def test_kind_mismatch_is_an_error(self):
        reg = MetricRegistry()
        with pytest.raises(TypeError, match="is a counter"):
            reg.gauge(catalog.ROUNDS_TOTAL)

    def test_registries_are_isolated(self):
        a = MetricRegistry()
        b = MetricRegistry()
        a.counter(catalog.ROUNDS_TOTAL).inc()
        assert b.counter(catalog.ROUNDS_TOTAL).value() == 0.0

    def test_metrics_iterate_in_name_order(self):
        reg = MetricRegistry()
        reg.gauge(catalog.BATTERY_SOC)
        reg.counter(catalog.ROUNDS_TOTAL)
        reg.counter(catalog.EVENTS_TOTAL)
        assert [m.name for m in reg.metrics()] == sorted(reg.names())
