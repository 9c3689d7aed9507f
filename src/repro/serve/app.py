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
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..engine.events import EventBus
from ..engine.telemetry import TELEMETRY_SCHEMA_VERSION
from ..fleet.store import FleetStore, synthetic_fleet
from ..obs import ObsRecorder, render_prometheus
from ..obs import catalog
from ..obs.metrics import CounterChild, HistogramChild, MetricRegistry
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

__all__ = [
    "ServeConfig", "ServeApp", "Response", "ROUTE_LABELS", "MAX_ROUND_SHARDS",
]

#: ``handle_request`` result: HTTP status + JSON-able payload (or the
#: raw exposition text for ``/metrics``)
Response = Tuple[int, Union[Dict[str, object], str]]

#: the one ``route`` label of every request no route matched, so an
#: unknown path or method cannot mint a new series
_UNMATCHED_ROUTE = "unmatched"

#: a request body as the handlers take it (``{}`` when there was none)
Body = Mapping[str, object]
#: what a route does: ``(app, id, body) → response``; ``id`` is what the
#: route's ``{…}`` matched ("" on a literal path)
Handler = Callable[["ServeApp", str, Body], Response]


#: the largest shard budget a serve round may be planned over: its cost
#: rows take 16 bytes a shard per device class, so 2**20 shards is
#: 16 MiB a class. Registration keeps the live devices' data (and so
#: each device's ``data_size``) within ``shard_size * MAX_ROUND_SHARDS``
#: samples, which an int64 sum holds too.
MAX_ROUND_SHARDS = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` can tune.

    A device registers at most ``shard_size * MAX_ROUND_SHARDS`` samples
    (10**8 at the default shard size), and the live devices hold at
    most that many together.
    """

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
        #: the request counter's and latency's bound series per (route
        #: label, status): the labels are the route table's and
        #: ``unmatched``, so the handles are as few
        self._bound: Dict[
            Tuple[str, int], Tuple[CounterChild, HistogramChild]
        ] = {}
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
            max_live_samples=self.config.shard_size * MAX_ROUND_SHARDS,
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
            status, payload, route = self._route(method, path, body)
            elapsed_s = perf_counter() - t0
        bound = self._bound.get((route, status))
        if bound is None:
            bound = self._bound[route, status] = (
                self._requests_total.labels(route=route, code=status),
                self._request_latency.labels(route=route),
            )
        counted, timed = bound
        counted.inc()
        timed.observe(elapsed_s)
        return status, payload

    def _route(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]],
    ) -> Tuple[int, Union[Dict[str, object], str], str]:
        """The matched route's response and its ``route`` label."""
        found = _LITERALS.get((method, path))
        arg = ""
        if found is None:
            for pattern, handler, label in _PATTERNS.get(method, ()):
                matched = pattern.match(path)
                if matched is not None:
                    found, arg = (handler, label), matched.group(1)
                    break
            else:
                error = {"error": f"no route {method} {path}"}
                return 404, error, _UNMATCHED_ROUTE
        handler, label = found
        try:
            status, payload = handler(self, arg, body if body is not None else {})
        except SchemaError as exc:
            status, payload = 400, {"error": str(exc)}
        except RegistryError as exc:
            status, payload = exc.code, {"error": str(exc)}
        return status, payload, label

    # -- the route handlers: (id the path matched, body) -> response ------
    def _register(self, _id: str, body: Body) -> Response:
        req = RegisterRequest.from_dict(body)
        record = self.registry.register(
            req.device_id,
            data_size=req.data_size,
            battery_soc=req.battery_soc,
        )
        return 201, record.to_dict()

    def _heartbeat(self, device_id: str, body: Body) -> Response:
        hb = HeartbeatRequest.from_dict(body)
        lag_s = self.registry.heartbeat(device_id, battery_soc=hb.battery_soc)
        state = self.registry.get(device_id).state
        return 200, {"device_id": device_id, "state": state, "lag_s": lag_s}

    def _deregister(self, device_id: str, _body: Body) -> Response:
        return 200, self.registry.deregister(device_id).to_dict()

    def _devices(self, _id: str, _body: Body) -> Response:
        return 200, {
            "counts": self.registry.counts(),
            "devices": self.registry.snapshot(),
        }

    def _submit(self, _id: str, body: Body) -> Response:
        req = RoundRequest.from_dict(body)
        job = self.submit_round(
            scheduler=req.scheduler, cohort_size=req.cohort_size
        )
        return 202, job.to_dict()

    def _round(self, round_id: str, _body: Body) -> Response:
        job = self.jobs.get(int(round_id))
        if job is None:
            return 404, {"error": "unknown round"}
        return 200, job.to_dict()

    def _cancel(self, round_id: str, _body: Body) -> Response:
        job = self.jobs.get(int(round_id))
        if job is None:
            return 404, {"error": "unknown round"}
        if job.status in ("completed", "failed", "cancelled"):
            return 409, {"error": f"round already {job.status}"}
        job.cancel_requested = True
        return 200, job.to_dict()

    def _latest_model(self, _id: str, _body: Body) -> Response:
        return 200, self.models.latest().to_dict()

    def _model(self, version: str, _body: Body) -> Response:
        entry = self.models.get(int(version))
        if entry is None:
            return 404, {"error": "unknown model version"}
        return 200, entry.to_dict()

    def _metrics(self, _id: str, _body: Body) -> Response:
        return 200, self.render_metrics()

    def _healthz(self, _id: str, _body: Body) -> Response:
        return 200, {
            "ok": True,
            "devices": self.registry.counts(),
            "rounds": len(self.jobs),
            "model_version": self.models.latest().version,
        }

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


#: every route: method, path, the regex its ``{…}`` segment matches
#: (``None`` for a literal path) and its handler. ``"{method} {path}"``
#: is the route's ``route`` label, so a request is counted under its
#: table entry, never under its own path.
_ROUTES: Tuple[Tuple[str, str, Optional[str], Handler], ...] = (
    ("POST", "/v1/devices/register", None, ServeApp._register),
    ("POST", "/v1/devices/{id}/heartbeat", "[^/]+", ServeApp._heartbeat),
    ("DELETE", "/v1/devices/{id}", "[^/]+", ServeApp._deregister),
    ("GET", "/v1/devices", None, ServeApp._devices),
    ("POST", "/v1/rounds", None, ServeApp._submit),
    ("GET", "/v1/rounds/{id}", r"\d+", ServeApp._round),
    ("POST", "/v1/rounds/{id}/cancel", r"\d+", ServeApp._cancel),
    ("GET", "/v1/models/latest", None, ServeApp._latest_model),
    ("GET", "/v1/models/{version}", r"\d+", ServeApp._model),
    ("GET", "/metrics", None, ServeApp._metrics),
    ("GET", "/healthz", None, ServeApp._healthz),
)

#: the ``route`` label of each route, in table order
ROUTE_LABELS: Tuple[str, ...] = tuple(
    f"{method} {path}" for method, path, _, _ in _ROUTES
)

#: a pattern route as it is tried: (compiled path, handler, label)
_Pattern = Tuple["re.Pattern[str]", Handler, str]


def _index() -> Tuple[
    Dict[Tuple[str, str], Tuple[Handler, str]], Dict[str, List[_Pattern]]
]:
    """The table as it is looked up: (method, literal path) → (handler,
    label), tried first; then per method, each pattern route with its
    ``{…}`` compiled to the one group the handler gets."""
    literals: Dict[Tuple[str, str], Tuple[Handler, str]] = {}
    patterns: Dict[str, List[_Pattern]] = {}
    for (method, path, id_re, handler), label in zip(_ROUTES, ROUTE_LABELS):
        if id_re is None:
            literals[method, path] = (handler, label)
            continue
        head, _, rest = path.partition("{")
        tail = rest.partition("}")[2]
        compiled = re.compile(f"{re.escape(head)}({id_re}){re.escape(tail)}$")
        patterns.setdefault(method, []).append((compiled, handler, label))
    return literals, patterns


_LITERALS, _PATTERNS = _index()


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
