"""The route table: one entry names a request's handler and its
``route`` label, the request path does no label-key work once warm, and
registration refuses what no route or column can hold."""

import asyncio

import numpy as np
import pytest

from repro.obs import catalog
from repro.obs.metrics import Metric
from repro.serve.app import ROUTE_LABELS

from .conftest import make_app, register_n

#: one request per route, with the label it must be counted under
_EACH_ROUTE = (
    ("POST", "/v1/devices/register", {"device_id": "z"},
     "POST /v1/devices/register"),
    ("POST", "/v1/devices/dev-000/heartbeat", None,
     "POST /v1/devices/{id}/heartbeat"),
    ("DELETE", "/v1/devices/dev-001", None, "DELETE /v1/devices/{id}"),
    ("GET", "/v1/devices", None, "GET /v1/devices"),
    ("POST", "/v1/rounds", {}, "POST /v1/rounds"),
    ("GET", "/v1/rounds/1", None, "GET /v1/rounds/{id}"),
    ("POST", "/v1/rounds/1/cancel", None, "POST /v1/rounds/{id}/cancel"),
    ("GET", "/v1/models/latest", None, "GET /v1/models/latest"),
    ("GET", "/v1/models/0", None, "GET /v1/models/{version}"),
    ("GET", "/metrics", None, "GET /metrics"),
    ("GET", "/healthz", None, "GET /healthz"),
)


def _counted(app):
    requests = app.metrics.counter(catalog.SERVE_REQUESTS_TOTAL)
    return {labels: value for labels, value in requests.series()}


def test_the_table_labels_every_route():
    assert ROUTE_LABELS == tuple(label for *_, label in _EACH_ROUTE)


@pytest.mark.parametrize(
    "method,path,body,label", _EACH_ROUTE, ids=[e[3] for e in _EACH_ROUTE]
)
def test_each_route_is_counted_under_its_table_label(method, path, body, label):
    app, _ = make_app()
    register_n(app, 2)
    app.handle_request("POST", "/v1/rounds", {})
    before = _counted(app)
    status, _ = app.handle_request(method, path, body)
    assert status != 404
    after = _counted(app)
    moved = {k: v for k, v in after.items() if before.get(k) != v}
    assert moved == {(label, str(status)): before.get((label, str(status)), 0.0) + 1}
    hist = app.metrics.histogram(catalog.SERVE_REQUEST_LATENCY_SECONDS)
    assert hist.count(route=label) >= 1


def test_hostile_paths_share_unmatched_and_ids_never_reach_a_label():
    app, _ = make_app()
    register_n(app, 2)
    for method, path in (
        ("GET", "/v1/devices/dev-000"),
        ("PUT", "/v1/devices/dev-000"),
        ("POST", "/v1/rounds/x/cancel"),
        ("GET", "/v1/rounds/5\n"),
        ("DELETE", "/v1/devices/a/b"),
        ("GET", "/nope/dev-001"),
    ):
        app.handle_request(method, path, None)
    app.handle_request("DELETE", "/v1/devices/dev-000", None)
    app.handle_request("POST", "/v1/devices/dev-001/heartbeat", None)
    routes = {route for route, _ in _counted(app)}
    assert routes <= set(ROUTE_LABELS) | {"unmatched"}
    assert not any("dev-" in route for route in routes)


def test_a_warm_heartbeat_and_delete_do_no_label_key_work(monkeypatch):
    app, clock = make_app()
    register_n(app, 4)
    asyncio.run(app.run_pending())
    # one warm-up of each route (and each status the timed calls get)
    for method, path, body, _ in _EACH_ROUTE:
        app.handle_request(method, path, body)
    clock.advance(1.0)
    calls = []
    real_key = Metric._key

    def counting(self, labels):
        calls.append((self.name, dict(labels)))
        return real_key(self, labels)

    monkeypatch.setattr(Metric, "_key", counting)
    assert app.handle_request("POST", "/v1/devices/dev-002/heartbeat", None)[0] == 200
    assert app.handle_request("DELETE", "/v1/devices/dev-003", None)[0] == 200
    assert calls == []


class TestRegisterLimits:
    def test_a_data_size_beyond_int64_is_a_400_that_claims_no_row(self):
        app, _ = make_app(n=4)
        status, payload = app.handle_request(
            "POST",
            "/v1/devices/register",
            {"device_id": "big", "data_size": 10**30},
        )
        assert status == 400
        assert "data_size" in payload["error"]
        assert "big" not in app.registry.records
        assert not app.fleet.alive.any()
        status, payload = app.handle_request(
            "POST", "/v1/devices/register", {"device_id": "next"}
        )
        assert (status, payload["client_id"]) == (201, 0)

    def test_the_largest_int64_registers(self):
        app, _ = make_app(n=4)
        status, payload = app.handle_request(
            "POST",
            "/v1/devices/register",
            {"device_id": "max", "data_size": 2**63 - 1},
        )
        assert status == 201
        assert app.fleet.data_size[payload["client_id"]] == 2**63 - 1

    def test_a_failed_column_write_leaves_alive_and_records_agreeing(self):
        app, _ = make_app(n=4)
        register_n(app, 1)
        with pytest.raises(OverflowError):
            app.registry.register("big", data_size=10**30)
        live = {
            r.client_id for r in app.registry.records.values()
            if r.state != "dead"
        }
        assert set(np.flatnonzero(app.fleet.alive).tolist()) == live
        assert sum(app.registry.counts().values()) == len(live)
        assert app.registry.register("next").client_id == 1

    @pytest.mark.parametrize("device_id", ["a/b", "/", "x/heartbeat"])
    def test_a_device_id_with_a_slash_is_refused(self, device_id):
        app, _ = make_app(n=4)
        status, payload = app.handle_request(
            "POST", "/v1/devices/register", {"device_id": device_id}
        )
        assert status == 400
        assert "'/'" in payload["error"]
        assert not app.registry.records
        assert not app.fleet.alive.any()
