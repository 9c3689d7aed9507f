"""The catalog of engine metrics.

Every metric the engine recorder emits is registered here, once, under
its stable Prometheus-style name. ``docs/observability.md`` carries the
same table for humans; ``tests/test_live_invariants.py`` keeps the two
in sync (every ``register_metric`` name below must appear in the doc).

Naming follows Prometheus conventions: ``_total`` counters, base units
in the name (``_seconds``, ``_joules``), gauges unsuffixed. Every
series folded from events is on the engine's *virtual* clock; no event
field carries host time. The ``repro_serve_request_*`` and
``repro_prof_phase_seconds`` series are host cost, observed where it is
spent (the HTTP handler, the profiler), never read from an event.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_ENERGY_BUCKETS,
    DEFAULT_HOST_SECONDS_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MetricSpec,
    register_metric,
)

__all__ = [
    "EVENTS_TOTAL",
    "ROUNDS_TOTAL",
    "ROUND_MAKESPAN_SECONDS",
    "ROUND_MEAN_TIME_SECONDS",
    "ROUND_ENERGY_JOULES",
    "PARTICIPANTS",
    "ACCURACY",
    "CLOCK_SECONDS",
    "CLIENT_COMPUTE_SECONDS",
    "CLIENT_COMM_SECONDS",
    "CLIENT_ROUND_SECONDS",
    "CLIENT_BUSY_SECONDS_TOTAL",
    "CLIENT_ROUNDS_TOTAL",
    "CLIENT_ENERGY_JOULES_TOTAL",
    "CLIENTS_DROPPED_TOTAL",
    "BATTERY_SOC",
    "AGGREGATIONS_TOTAL",
    "SCHEDULE_SOLVES_TOTAL",
    "SCHEDULE_PREDICTED_MAKESPAN_SECONDS",
    "COHORT_SIZE",
    "FLEET_ELIGIBLE",
    "SERVE_DEVICES",
    "SERVE_HEARTBEAT_LAG_SECONDS",
    "SERVE_REPLANS_TOTAL",
    "SERVE_ROUNDS_IN_FLIGHT",
    "SERVE_REQUESTS_TOTAL",
    "SERVE_REQUEST_LATENCY_SECONDS",
    "PROF_PHASE_SECONDS",
]

# -- stream-level ------------------------------------------------------------
EVENTS_TOTAL: MetricSpec = register_metric(
    "repro_events_total",
    "counter",
    "engine events seen, by event kind",
    labels=("kind",),
)
CLOCK_SECONDS: MetricSpec = register_metric(
    "repro_clock_seconds",
    "gauge",
    "virtual clock of the newest event",
    unit="seconds",
)

# -- rounds ------------------------------------------------------------------
ROUNDS_TOTAL: MetricSpec = register_metric(
    "repro_rounds_total",
    "counter",
    "completed barrier rounds",
)
ROUND_MAKESPAN_SECONDS: MetricSpec = register_metric(
    "repro_round_makespan_seconds",
    "histogram",
    "per-round makespan (slowest surviving client)",
    unit="seconds",
    buckets=DEFAULT_TIME_BUCKETS,
)
ROUND_MEAN_TIME_SECONDS: MetricSpec = register_metric(
    "repro_round_mean_time_seconds",
    "gauge",
    "mean client round time of the latest round",
    unit="seconds",
)
ROUND_ENERGY_JOULES: MetricSpec = register_metric(
    "repro_round_energy_joules",
    "histogram",
    "total fleet energy drained per round",
    unit="joules",
    buckets=DEFAULT_ENERGY_BUCKETS,
)
PARTICIPANTS: MetricSpec = register_metric(
    "repro_participants",
    "gauge",
    "clients aggregated in the latest round",
)
ACCURACY: MetricSpec = register_metric(
    "repro_accuracy",
    "gauge",
    "latest evaluated global-model accuracy",
)

# -- clients -----------------------------------------------------------------
CLIENT_COMPUTE_SECONDS: MetricSpec = register_metric(
    "repro_client_compute_seconds",
    "histogram",
    "per-client local compute time, all clients pooled",
    unit="seconds",
    buckets=DEFAULT_TIME_BUCKETS,
)
CLIENT_COMM_SECONDS: MetricSpec = register_metric(
    "repro_client_comm_seconds",
    "histogram",
    "per-client model up/download time, all clients pooled",
    unit="seconds",
    buckets=DEFAULT_TIME_BUCKETS,
)
CLIENT_ROUND_SECONDS: MetricSpec = register_metric(
    "repro_client_round_seconds",
    "histogram",
    "per-client total round time (compute + comm), all clients pooled",
    unit="seconds",
    buckets=DEFAULT_TIME_BUCKETS,
)
CLIENT_BUSY_SECONDS_TOTAL: MetricSpec = register_metric(
    "repro_client_busy_seconds_total",
    "counter",
    "cumulative busy (compute + comm) seconds per client",
    labels=("client",),
    unit="seconds",
)
CLIENT_ROUNDS_TOTAL: MetricSpec = register_metric(
    "repro_client_rounds_total",
    "counter",
    "workloads finished per client",
    labels=("client",),
)
CLIENTS_DROPPED_TOTAL: MetricSpec = register_metric(
    "repro_clients_dropped_total",
    "counter",
    "straggler drops per client",
    labels=("client",),
)

# -- energy / battery (the paper's battery story) ----------------------------
CLIENT_ENERGY_JOULES_TOTAL: MetricSpec = register_metric(
    "repro_client_energy_joules_total",
    "counter",
    "cumulative battery energy drained per client",
    labels=("client",),
    unit="joules",
)
BATTERY_SOC: MetricSpec = register_metric(
    "repro_battery_soc",
    "gauge",
    "latest state of charge per client (0..1)",
    labels=("client",),
)

# -- aggregation / scheduling ------------------------------------------------
AGGREGATIONS_TOTAL: MetricSpec = register_metric(
    "repro_aggregations_total",
    "counter",
    "model aggregations, by strategy",
    labels=("strategy",),
)
SCHEDULE_SOLVES_TOTAL: MetricSpec = register_metric(
    "repro_schedule_solves_total",
    "counter",
    "scheduling problems solved, by scheduler",
    labels=("scheduler",),
)
SCHEDULE_PREDICTED_MAKESPAN_SECONDS: MetricSpec = register_metric(
    "repro_schedule_predicted_makespan_seconds",
    "gauge",
    "latest predicted makespan, by scheduler",
    labels=("scheduler",),
    unit="seconds",
)

# -- fleet-scale cohorts -----------------------------------------------------
COHORT_SIZE: MetricSpec = register_metric(
    "repro_cohort_size",
    "gauge",
    "devices accounted in the latest cohort-aggregate round",
)
FLEET_ELIGIBLE: MetricSpec = register_metric(
    "repro_fleet_eligible",
    "gauge",
    "eligible devices when the latest cohort was drawn",
)

# -- control plane (repro.serve) ---------------------------------------------
# Unlike everything above, these are fed by the orchestrator's service
# clock (the sanctioned repro.serve.clock seam), not the virtual clock.
SERVE_DEVICES: MetricSpec = register_metric(
    "repro_serve_devices",
    "gauge",
    "registered devices by lifecycle state",
    labels=("state",),
)
SERVE_HEARTBEAT_LAG_SECONDS: MetricSpec = register_metric(
    "repro_serve_heartbeat_lag_seconds",
    "histogram",
    "seconds since the previous heartbeat, observed per heartbeat",
    unit="seconds",
    buckets=DEFAULT_TIME_BUCKETS,
)
SERVE_REPLANS_TOTAL: MetricSpec = register_metric(
    "repro_serve_replans_total",
    "counter",
    "mid-round schedule re-plans forced by membership churn",
)
SERVE_ROUNDS_IN_FLIGHT: MetricSpec = register_metric(
    "repro_serve_rounds_in_flight",
    "gauge",
    "orchestrator rounds currently executing",
)
SERVE_REQUESTS_TOTAL: MetricSpec = register_metric(
    "repro_serve_requests_total",
    "counter",
    "control-plane API requests, by route and status code",
    labels=("route", "code"),
)
SERVE_REQUEST_LATENCY_SECONDS: MetricSpec = register_metric(
    "repro_serve_request_latency_seconds",
    "histogram",
    "control-plane request handling latency "
    "(host seconds, perf_counter), by collapsed route",
    labels=("route",),
    unit="seconds",
    buckets=DEFAULT_HOST_SECONDS_BUCKETS,
)

# -- host-cost profiling (repro.obs.prof) ------------------------------------
# Host seconds, not virtual time: fed from perf_counter phase samples
# via repro.obs.prof.fold_profile when profiling is enabled.
PROF_PHASE_SECONDS: MetricSpec = register_metric(
    "repro_prof_phase_seconds",
    "histogram",
    "host seconds per profiler phase path (perf_counter)",
    labels=("phase",),
    unit="seconds",
    buckets=DEFAULT_HOST_SECONDS_BUCKETS,
)
