"""Observability over the engine event stream.

``repro.obs`` folds the telemetry the :class:`~repro.engine.engine.
RoundEngine` already narrates into three views — a metric registry
(:mod:`~repro.obs.metrics` + the :mod:`~repro.obs.catalog`), a
``run > round > client`` span tree (:mod:`~repro.obs.spans`) and an
energy/battery ledger (:mod:`~repro.obs.energy`) — then exports them
as Prometheus exposition text or a Perfetto-loadable Chrome trace.
The same fold runs live on an :class:`~repro.engine.events.EventBus`
or offline over a saved telemetry JSONL; ``repro obs`` is the CLI
front door. See ``docs/observability.md``.
"""

from . import catalog
from .dashboard import render_summary
from .energy import ClientEnergy, EnergyLedger
from .export_prom import render_prometheus
from .export_trace import (
    profile_counter_events,
    render_trace_json,
    trace_events,
)
from .prof import (
    PROFILER,
    PhaseProfiler,
    fold_profile,
    profile_payload,
    render_profile,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricSpec,
    available_metrics,
    metric_spec,
    register_metric,
)
from .recorder import (
    ObsRecorder,
    RoundSummary,
    observe_engine,
    record_telemetry,
)
from .spans import Span, SpanBuilder, spans_from_events

__all__ = [
    "catalog",
    "MetricSpec",
    "register_metric",
    "metric_spec",
    "available_metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Span",
    "SpanBuilder",
    "spans_from_events",
    "ClientEnergy",
    "EnergyLedger",
    "ObsRecorder",
    "RoundSummary",
    "observe_engine",
    "record_telemetry",
    "render_summary",
    "render_prometheus",
    "render_trace_json",
    "trace_events",
    "PROFILER",
    "PhaseProfiler",
    "fold_profile",
    "profile_payload",
    "render_profile",
    "profile_counter_events",
]
