"""The orchestrator application: components wired behind one router.

:class:`ServeApp` owns every control-plane component — device registry,
heartbeat thresholds, training coordinator, model registry, metrics,
observability recorder — and exposes exactly one transport-free entry
point, :meth:`ServeApp.handle_request`: ``(method, path, body-dict) →
(status, payload)``. The asyncio HTTP layer
(:mod:`repro.serve.httpd`) is a thin codec around it, and the
deterministic simulated-device driver (:mod:`repro.serve.simclients`)
calls it directly — same routes, same validation, no sockets.

Round execution is asynchronous: ``POST /v1/rounds`` enqueues a
:class:`~repro.serve.coordinator.RoundJob` and returns ``202``; the
transport (or the test) drains :meth:`take_pending_jobs` and awaits
:meth:`run_job` for each.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..engine.events import EventBus
from ..engine.telemetry import TELEMETRY_SCHEMA_VERSION
from ..fleet.store import FleetStore, synthetic_fleet
from ..obs import ObsRecorder, render_prometheus
from ..obs import catalog
from ..obs.metrics import MetricRegistry
from ..obs.prof import PROFILER, fold_profile
from .clock import NowFn, now as wall_now
from .coordinator import RoundJob, TrainingCoordinator
from .modelreg import ModelRegistry
from .registry import DeviceRegistry, RegistryError
from .schemas import (
    HeartbeatRequest,
    RegisterRequest,
    RoundRequest,
    SchemaError,
)

__all__ = ["ServeConfig", "ServeApp", "Response"]

#: ``handle_request`` result: HTTP status + JSON-able payload (or the
#: raw exposition text for ``/metrics``)
Response = Tuple[int, Union[Dict[str, object], str]]

_DEVICE_ROUTE = re.compile(r"^/v1/devices/([^/]+)/heartbeat$")
_DEVICE_DELETE = re.compile(r"^/v1/devices/([^/]+)$")
_ROUND_ROUTE = re.compile(r"^/v1/rounds/(\d+)$")
_ROUND_CANCEL = re.compile(r"^/v1/rounds/(\d+)/cancel$")
_MODEL_ROUTE = re.compile(r"^/v1/models/(\d+)$")
#: the routes whose path has no id in it, each with its one method
_LITERAL_ROUTES = (
    ("POST", "/v1/devices/register"),
    ("GET", "/v1/models/latest"),
)
#: the one ``route`` label of every request no route matched, so an
#: unknown path or method cannot mint a new series
_UNMATCHED_ROUTE = "unmatched"


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` can tune."""

    fleet_size: int = 256
    scheduler: str = "proportional"
    shard_size: int = 100
    total_shards: Optional[int] = None
    cohort_size: Optional[int] = None
    min_soc: float = 0.0
    stale_after_s: float = 15.0
    dead_after_s: float = 45.0
    monitor_interval_s: float = 1.0
    seed: int = 0
    local_epochs: int = 1
    aggregation_s: float = 0.0
    wire_mb: float = 1.0
    detail_threshold: int = 256
    max_replans: int = 8


class ServeApp:
    """Wire the orchestrator components; route control-plane requests.

    ``now_fn`` is the service clock for *every* component (defaults to
    the sanctioned wall-clock seam); pass a
    :class:`~repro.serve.clock.ManualClock` for deterministic runs.
    ``fleet`` overrides the synthetic population (tests use hand-built
    device classes to avoid profiler probing).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        now_fn: Optional[NowFn] = None,
        fleet: Optional[FleetStore] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.now_fn: NowFn = now_fn if now_fn is not None else wall_now
        self.bus = bus if bus is not None else EventBus()
        self.metrics = MetricRegistry()
        self.recorder = ObsRecorder(
            metrics=self.metrics, run_name="serve"
        )
        self.bus.subscribe(self.recorder)
        self._requests_total = self.metrics.counter(
            catalog.SERVE_REQUESTS_TOTAL
        )
        self._request_latency = self.metrics.histogram(
            catalog.SERVE_REQUEST_LATENCY_SECONDS
        )
        #: profiler samples already folded into the scrape surface
        self._prof_folded = 0
        self.fleet = (
            fleet
            if fleet is not None
            else synthetic_fleet(
                self.config.fleet_size, seed=self.config.seed
            )
        )
        self.registry = DeviceRegistry(
            self.fleet,
            stale_after_s=self.config.stale_after_s,
            dead_after_s=self.config.dead_after_s,
            now_fn=self.now_fn,
            bus=self.bus,
            metrics=self.metrics,
        )
        self.models = ModelRegistry(now_fn=self.now_fn)
        self.coordinator = TrainingCoordinator(
            self.registry,
            self.models,
            scheduler=self.config.scheduler,
            bus=self.bus,
            metrics=self.metrics,
            shard_size=self.config.shard_size,
            total_shards=self.config.total_shards,
            cohort_size=self.config.cohort_size,
            min_soc=self.config.min_soc,
            local_epochs=self.config.local_epochs,
            aggregation_s=self.config.aggregation_s,
            wire_mb=self.config.wire_mb,
            detail_threshold=self.config.detail_threshold,
            max_replans=self.config.max_replans,
        )
        self.jobs: Dict[int, RoundJob] = {}
        self._next_round_id = 1
        self._pending_jobs: List[RoundJob] = []

    # -- round lifecycle ---------------------------------------------------
    def submit_round(
        self,
        scheduler: Optional[str] = None,
        cohort_size: Optional[int] = None,
    ) -> RoundJob:
        """Enqueue one round; the transport drains and runs it."""
        job = RoundJob(
            round_id=self._next_round_id,
            scheduler=scheduler,
            cohort_size=cohort_size,
        )
        self._next_round_id += 1
        self.jobs[job.round_id] = job
        self._pending_jobs.append(job)
        return job

    def take_pending_jobs(self) -> List[RoundJob]:
        """Drain the submitted-but-not-started queue."""
        pending, self._pending_jobs = self._pending_jobs, []
        return pending

    async def run_job(self, job: RoundJob) -> RoundJob:
        """Execute one round job through the coordinator."""
        return await self.coordinator.run_round(job)

    async def run_pending(self) -> List[RoundJob]:
        """Run every queued job to completion, submission-ordered."""
        done: List[RoundJob] = []
        for job in self.take_pending_jobs():
            done.append(await self.run_job(job))
        return done

    # -- request routing ---------------------------------------------------
    def handle_request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]] = None,
    ) -> Response:
        """Route one control-plane request; transport-free."""
        # perf_counter: request latency is host cost, never the
        # simulated service clock (a ManualClock would report zero)
        with PROFILER.phase("request"):
            t0 = perf_counter()
            routed = self._route(method, path, body)
            elapsed_s = perf_counter() - t0
        if routed is not None:
            status, payload = routed
            route = self._route_label(method, path)
        else:
            status, payload = 404, {"error": f"no route {method} {path}"}
            route = _UNMATCHED_ROUTE
        self._requests_total.inc(route=route, code=status)
        self._request_latency.observe(elapsed_s, route=route)
        return status, payload

    def _route(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]],
    ) -> Optional[Response]:
        """The matched route's response; ``None`` when nothing matched."""
        payload: Mapping[str, object] = body if body is not None else {}
        try:
            if method == "POST" and path == "/v1/devices/register":
                req = RegisterRequest.from_dict(payload)
                record = self.registry.register(
                    req.device_id,
                    data_size=req.data_size,
                    battery_soc=req.battery_soc,
                )
                return 201, record.to_dict()
            heartbeat = _DEVICE_ROUTE.match(path)
            if method == "POST" and heartbeat is not None:
                hb = HeartbeatRequest.from_dict(payload)
                device_id = heartbeat.group(1)
                lag_s = self.registry.heartbeat(
                    device_id, battery_soc=hb.battery_soc
                )
                record = self.registry.get(device_id)
                return 200, {
                    "device_id": device_id,
                    "state": record.state,
                    "lag_s": lag_s,
                }
            delete = _DEVICE_DELETE.match(path)
            if method == "DELETE" and delete is not None:
                record = self.registry.deregister(delete.group(1))
                return 200, record.to_dict()
            if method == "GET" and path == "/v1/devices":
                return 200, {
                    "counts": self.registry.counts(),
                    "devices": self.registry.snapshot(),
                }
            if method == "POST" and path == "/v1/rounds":
                req_round = RoundRequest.from_dict(payload)
                job = self.submit_round(
                    scheduler=req_round.scheduler,
                    cohort_size=req_round.cohort_size,
                )
                return 202, job.to_dict()
            round_get = _ROUND_ROUTE.match(path)
            if method == "GET" and round_get is not None:
                job_got = self.jobs.get(int(round_get.group(1)))
                if job_got is None:
                    return 404, {"error": "unknown round"}
                return 200, job_got.to_dict()
            cancel = _ROUND_CANCEL.match(path)
            if method == "POST" and cancel is not None:
                job_c = self.jobs.get(int(cancel.group(1)))
                if job_c is None:
                    return 404, {"error": "unknown round"}
                if job_c.status in ("completed", "failed", "cancelled"):
                    return 409, {
                        "error": f"round already {job_c.status}"
                    }
                job_c.cancel_requested = True
                return 200, job_c.to_dict()
            if method == "GET" and path == "/v1/models/latest":
                return 200, self.models.latest().to_dict()
            model_get = _MODEL_ROUTE.match(path)
            if method == "GET" and model_get is not None:
                entry = self.models.get(int(model_get.group(1)))
                if entry is None:
                    return 404, {"error": "unknown model version"}
                return 200, entry.to_dict()
            if method == "GET" and path == "/metrics":
                return 200, self.render_metrics()
            if method == "GET" and path == "/healthz":
                return 200, {
                    "ok": True,
                    "devices": self.registry.counts(),
                    "rounds": len(self.jobs),
                    "model_version": self.models.latest().version,
                }
            return None
        except SchemaError as exc:
            return 400, {"error": str(exc)}
        except RegistryError as exc:
            return exc.code, {"error": str(exc)}

    def render_metrics(self) -> str:
        """The ``/metrics`` exposition: engine + serve instruments.

        When phase profiling is on, samples accumulated since the last
        scrape are folded into ``repro_prof_phase_seconds`` first (the
        cursor keeps repeated scrapes from double-counting).
        """
        if PROFILER.samples or PROFILER.enabled:
            self._prof_folded = fold_profile(
                PROFILER, self.metrics, start=self._prof_folded
            )
        return render_prometheus(
            self.metrics,
            extra_info={
                "mode": "serve",
                "scheduler": self.config.scheduler,
                "schema_version": str(TELEMETRY_SCHEMA_VERSION),
            },
        )

    @staticmethod
    def _route_label(method: str, path: str) -> str:
        """Collapse ids out of paths so label cardinality stays flat.
        A literal route is exempt by method *and* path: a device may be
        named ``register``, and deleting it is still ``{id}``."""
        if (method, path) not in _LITERAL_ROUTES:
            path = _DEVICE_ROUTE.sub("/v1/devices/{id}/heartbeat", path)
            path = _DEVICE_DELETE.sub("/v1/devices/{id}", path)
            path = _ROUND_CANCEL.sub("/v1/rounds/{id}/cancel", path)
            path = _ROUND_ROUTE.sub("/v1/rounds/{id}", path)
            path = _MODEL_ROUTE.sub("/v1/models/{version}", path)
        return f"{method} {path}"


def parse_json_body(raw: bytes) -> Mapping[str, object]:
    """Decode a request body; empty means an empty object."""
    if not raw.strip():
        return {}
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise SchemaError("body must be a JSON object")
    return parsed
