"""Control-plane routing: transport-free request/response contract."""

import asyncio

import pytest

from repro.obs import catalog
from repro.serve import SchemaError, ServeApp, ServeConfig
from repro.serve.app import parse_json_body

from .conftest import make_app, register_n


def test_default_config_builds_a_synthetic_fleet():
    app = ServeApp(ServeConfig(fleet_size=4))
    assert app.fleet.n == 4
    assert app.registry.live_count() == 0  # unclaimed until register


def test_register_route_returns_the_record():
    app, _ = make_app()
    status, payload = app.handle_request(
        "POST",
        "/v1/devices/register",
        {"device_id": "phone-1", "data_size": 500},
    )
    assert status == 201
    assert payload["device_id"] == "phone-1"
    assert payload["client_id"] == 0
    assert payload["state"] == "registered"


def test_register_validation_maps_to_400():
    app, _ = make_app()
    status, payload = app.handle_request(
        "POST", "/v1/devices/register", {"device-id": "typo"}
    )
    assert status == 400
    assert "device-id" in payload["error"]


def test_duplicate_register_maps_to_409():
    app, _ = make_app()
    body = {"device_id": "phone-1"}
    app.handle_request("POST", "/v1/devices/register", body)
    status, _ = app.handle_request(
        "POST", "/v1/devices/register", body
    )
    assert status == 409


def test_heartbeat_route_reports_state_and_lag():
    app, clock = make_app()
    register_n(app, 1)
    clock.advance(2.0)
    status, payload = app.handle_request(
        "POST", "/v1/devices/dev-000/heartbeat", {"battery_soc": 0.7}
    )
    assert status == 200
    assert payload == {
        "device_id": "dev-000",
        "state": "active",
        "lag_s": pytest.approx(2.0),
    }


def test_heartbeat_unknown_and_dead():
    app, _ = make_app()
    status, _ = app.handle_request(
        "POST", "/v1/devices/ghost/heartbeat", {}
    )
    assert status == 404
    register_n(app, 1)
    app.handle_request("DELETE", "/v1/devices/dev-000", None)
    status, _ = app.handle_request(
        "POST", "/v1/devices/dev-000/heartbeat", {}
    )
    assert status == 410


def test_device_listing_counts_and_snapshot():
    app, _ = make_app()
    register_n(app, 3)
    app.handle_request("DELETE", "/v1/devices/dev-001", None)
    status, payload = app.handle_request("GET", "/v1/devices", None)
    assert status == 200
    assert payload["counts"]["registered"] == 2
    assert payload["counts"]["dead"] == 1
    assert len(payload["devices"]) == 3


def test_round_submit_is_async_202():
    app, _ = make_app()
    register_n(app, 4)
    status, payload = app.handle_request("POST", "/v1/rounds", {})
    assert status == 202
    assert payload["round_id"] == 1
    assert payload["status"] == "pending"
    # nothing ran yet; the transport drains the queue
    jobs = asyncio.run(app.run_pending())
    assert jobs[0].status == "completed"
    status, payload = app.handle_request("GET", "/v1/rounds/1", None)
    assert status == 200
    assert payload["status"] == "completed"
    assert payload["model_version"] == 1


def test_round_request_overrides_scheduler():
    app, _ = make_app()
    register_n(app, 4)
    status, _ = app.handle_request(
        "POST", "/v1/rounds", {"scheduler": "olar", "cohort_size": 2}
    )
    assert status == 202
    job = asyncio.run(app.run_pending())[0]
    assert job.scheduler == "olar"
    # the cohort caps participation; the scheduler may concentrate
    assert 1 <= job.record["participant_count"] <= 2


def test_unknown_round_is_404():
    app, _ = make_app()
    status, _ = app.handle_request("GET", "/v1/rounds/7", None)
    assert status == 404


def test_cancel_route_lifecycle():
    app, _ = make_app()
    register_n(app, 4)
    app.handle_request("POST", "/v1/rounds", {})
    status, payload = app.handle_request(
        "POST", "/v1/rounds/1/cancel", None
    )
    assert status == 200
    job = asyncio.run(app.run_pending())[0]
    assert job.status == "cancelled"
    # cancelling a finished round is a conflict
    status, payload = app.handle_request(
        "POST", "/v1/rounds/1/cancel", None
    )
    assert status == 409
    assert "cancelled" in payload["error"]
    status, _ = app.handle_request("POST", "/v1/rounds/9/cancel", None)
    assert status == 404


def test_model_routes():
    app, _ = make_app()
    status, payload = app.handle_request(
        "GET", "/v1/models/latest", None
    )
    assert status == 200
    assert payload["version"] == 0
    register_n(app, 4)
    app.handle_request("POST", "/v1/rounds", {})
    asyncio.run(app.run_pending())
    status, payload = app.handle_request(
        "GET", "/v1/models/latest", None
    )
    assert payload["version"] == 1
    assert payload["parent"] == 0
    status, payload = app.handle_request("GET", "/v1/models/0", None)
    assert status == 200 and payload["metadata"]["genesis"] is True
    status, _ = app.handle_request("GET", "/v1/models/9", None)
    assert status == 404


def test_metrics_route_is_prometheus_text():
    app, _ = make_app()
    register_n(app, 2)
    status, text = app.handle_request("GET", "/metrics", None)
    assert status == 200
    assert isinstance(text, str)
    for name in (
        "repro_serve_devices",
        "repro_serve_heartbeat_lag_seconds",
        "repro_serve_replans_total",
        "repro_serve_rounds_in_flight",
        "repro_serve_requests_total",
    ):
        assert name in text
    assert 'mode="serve"' in text


def test_healthz():
    app, _ = make_app()
    status, payload = app.handle_request("GET", "/healthz", None)
    assert status == 200
    assert payload["ok"] is True
    assert payload["model_version"] == 0


def test_unroutable_is_404():
    app, _ = make_app()
    status, payload = app.handle_request("PUT", "/v1/devices", None)
    assert status == 404
    assert "no route" in payload["error"]


def test_request_counter_collapses_ids():
    app, _ = make_app()
    register_n(app, 2)
    app.handle_request("POST", "/v1/devices/dev-000/heartbeat", {})
    app.handle_request("POST", "/v1/devices/dev-001/heartbeat", {})
    _, text = app.handle_request("GET", "/metrics", None)
    # both heartbeats share one collapsed label
    assert 'route="POST /v1/devices/{id}/heartbeat"' in text
    assert "dev-000" not in text
    # the registration literal is *not* rewritten to {id}
    assert 'route="POST /v1/devices/register"' in text


def test_a_device_named_like_a_literal_route_keeps_the_id_label():
    app, _ = make_app()
    for device_id in ("register", "dev-1"):
        status, _ = app.handle_request(
            "POST", "/v1/devices/register", {"device_id": device_id}
        )
        assert status == 201
    for device_id in ("register", "dev-1"):
        status, _ = app.handle_request(
            "DELETE", f"/v1/devices/{device_id}", None
        )
        assert status == 200
    requests = app.metrics.counter(catalog.SERVE_REQUESTS_TOTAL)
    deletes = {
        labels: value
        for labels, value in requests.series()
        if labels[0].startswith("DELETE ")
    }
    assert deletes == {("DELETE /v1/devices/{id}", "200"): 2.0}


def test_unmatched_requests_share_one_series():
    app, _ = make_app()
    register_n(app, 1)
    unknown = [("GET", f"/probe/{i}") for i in range(100)]
    unknown += [(m, f"/x/{m}") for m in ("PATCH", "OPTIONS", "PUT")]
    # known shapes under a method no route takes
    unknown += [
        ("GET", "/v1/devices/dev-000/heartbeat"),
        ("PUT", "/v1/rounds/7"),
        ("POST", "/v1/models/latest"),
    ]
    for method, path in unknown:
        status, payload = app.handle_request(method, path, None)
        assert status == 404
        assert payload["error"] == f"no route {method} {path}"
    requests = app.metrics.counter(catalog.SERVE_REQUESTS_TOTAL)
    latency = app.metrics.histogram(catalog.SERVE_REQUEST_LATENCY_SECONDS)
    assert dict(requests.series()) == {
        ("POST /v1/devices/register", "201"): 1.0,
        ("unmatched", "404"): float(len(unknown)),
    }
    assert latency.count(route="unmatched") == len(unknown)
    _, text = app.handle_request("GET", "/metrics", None)
    assert "/probe/" not in text
    assert "/x/" not in text


def test_parse_json_body_contract():
    assert parse_json_body(b"") == {}
    assert parse_json_body(b"  \n") == {}
    assert parse_json_body(b'{"a": 1}') == {"a": 1}
    with pytest.raises(SchemaError, match="valid JSON"):
        parse_json_body(b"{nope")
    with pytest.raises(SchemaError, match="JSON object"):
        parse_json_body(b"[1, 2]")
