"""repro.engine — the unified event-driven FL execution core.

One :class:`RoundEngine` owns the device/thermal/link substrates and
emits a typed event stream; pluggable :class:`AggregationStrategy`
(sync FedAvg, staleness-weighted async, gossip) and :class:`Topology`
(star, peer graph) objects select the mode. The simulation classes in
:mod:`repro.federated` are thin façades over this package, and the
telemetry layer turns the event stream into structured per-round /
per-client records (JSON-lines sink + in-memory aggregator).
"""

from .aggregation import (
    AggregationStrategy,
    GossipAverage,
    StalenessWeighted,
    SyncFedAvg,
    fedavg_aggregate,
)
from .engine import AsyncUpdate, RoundEngine
from .events import (
    EVENT_TYPES,
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    EngineEvent,
    EventBus,
    ModelAggregated,
    RoundCompleted,
    event_from_dict,
)
from .execution import LocalTrainingResult, evaluate_accuracy, train_local
from .telemetry import (
    ConvergenceHistory,
    JsonlSink,
    RoundRecord,
    TelemetryAggregator,
    read_jsonl,
    record_telemetry,
)
from .topology import (
    PeerGraph,
    StarTopology,
    Topology,
    make_topology,
    metropolis_weights,
)

__all__ = [
    "AggregationStrategy",
    "GossipAverage",
    "StalenessWeighted",
    "SyncFedAvg",
    "fedavg_aggregate",
    "AsyncUpdate",
    "RoundEngine",
    "ClientDispatched",
    "ClientDropped",
    "ClientFinished",
    "EngineEvent",
    "EventBus",
    "ModelAggregated",
    "RoundCompleted",
    "EVENT_TYPES",
    "event_from_dict",
    "LocalTrainingResult",
    "evaluate_accuracy",
    "train_local",
    "ConvergenceHistory",
    "JsonlSink",
    "RoundRecord",
    "TelemetryAggregator",
    "read_jsonl",
    "record_telemetry",
    "PeerGraph",
    "StarTopology",
    "Topology",
    "make_topology",
    "metropolis_weights",
]
