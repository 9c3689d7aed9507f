"""repro.engine — the event-driven FL execution core.

One :class:`RoundEngine` owns the device/thermal/link substrates, emits
a typed event stream and runs the paper's synchronous round, aggregating
through a pluggable :class:`AggregationStrategy` (FedAvg). The async and
gossip simulations in :mod:`repro.federated` drive their own loops over
the engine's client step, with :class:`StalenessWeighted` /
:class:`GossipAverage` over a :class:`PeerGraph` as their merge rules.
This package also holds the wire codec (:mod:`~repro.engine.events`) and
the JSONL sink; the fold over the stream is :class:`repro.obs.ObsRecorder`.
"""

from .aggregation import (
    AggregationStrategy,
    GossipAverage,
    StalenessWeighted,
    SyncFedAvg,
    fedavg_aggregate,
)
from .engine import RoundEngine
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
from .telemetry import ConvergenceHistory, JsonlSink, RoundRecord, read_jsonl
from .topology import PeerGraph, make_topology, metropolis_weights

__all__ = [
    "AggregationStrategy",
    "GossipAverage",
    "StalenessWeighted",
    "SyncFedAvg",
    "fedavg_aggregate",
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
    "read_jsonl",
    "PeerGraph",
    "make_topology",
    "metropolis_weights",
]
