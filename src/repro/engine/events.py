"""Typed event stream emitted by the :class:`~repro.engine.RoundEngine`.

Every simulation mode (synchronous FedAvg, staleness-weighted async,
decentralized gossip) drives the same engine, and the engine narrates
its work as a stream of typed events. Consumers subscribe to an
:class:`EventBus`: the telemetry layer turns the stream into structured
records, tests assert on exact sequences, and future schedulers can
react to drops or stragglers online.

Event taxonomy (one dataclass per kind):

* :class:`ClientDispatched` — a client was handed the current model and
  started its local workload;
* :class:`ClientFinished` — the client completed compute (+ comm) and
  its update is available;
* :class:`ClientDropped` — a straggler missed the round deadline and
  its update was discarded;
* :class:`ModelAggregated` — the aggregation strategy merged client
  updates into a new model (or gossip mixing ran);
* :class:`RoundCompleted` — a barrier round closed with its makespan
  and bookkeeping;
* :class:`ScheduleComputed` — a :mod:`repro.sched` scheduler planned
  the round's shard allocation (predicted makespan/energy included);
* :class:`CohortAccounted` — a fleet-scale round accounted its whole
  cohort in aggregate (emitted instead of per-client events when the
  cohort exceeds the runner's detail threshold);
* :class:`DeviceJoined` / :class:`DeviceLost` — control-plane
  membership: a device registered with (or timed out / deregistered
  from) the :mod:`repro.serve` device registry. These are *not* tied to
  a round — churn happens between and during rounds alike, and the
  observability layer records them as run-level instants rather than
  children of whichever round happens to be open.

All events are frozen dataclasses with a stable ``kind`` string and a
``to_dict`` JSON-safe serialisation used by the JSON-lines sink.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, cast

__all__ = [
    "EngineEvent",
    "ClientDispatched",
    "ClientFinished",
    "ClientDropped",
    "ModelAggregated",
    "RoundCompleted",
    "ScheduleComputed",
    "CohortAccounted",
    "DeviceJoined",
    "DeviceLost",
    "EventBus",
]


class EngineEvent:
    """Base class for all engine events."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload: ``{"event": kind, ...fields}``."""
        payload: Dict[str, object] = {"event": self.kind}
        # every concrete event is a dataclass; the base class is not
        for key, value in asdict(cast(Any, self)).items():
            if isinstance(value, tuple):
                value = list(value)
            payload[key] = value
        return payload


@dataclass(frozen=True)
class ClientDispatched(EngineEvent):
    """A client pulled the model and started its local workload."""

    kind: ClassVar[str] = "client_dispatched"

    round_idx: int
    client_id: int
    n_samples: int
    time_s: float


@dataclass(frozen=True)
class ClientFinished(EngineEvent):
    """A client finished local compute (+ communication).

    ``energy_j`` is the battery energy the device drained running this
    round's workload and ``battery_soc`` its state of charge right
    after — ``None`` when the engine runs without device simulators.
    """

    kind: ClassVar[str] = "client_finished"

    round_idx: int
    client_id: int
    compute_s: float
    comm_s: float
    total_s: float
    time_s: float
    energy_j: Optional[float] = None
    battery_soc: Optional[float] = None


@dataclass(frozen=True)
class ClientDropped(EngineEvent):
    """A straggler missed the round deadline; its update is discarded."""

    kind: ClassVar[str] = "client_dropped"

    round_idx: int
    client_id: int
    total_s: float
    time_s: float


@dataclass(frozen=True)
class ModelAggregated(EngineEvent):
    """The aggregation strategy produced a new (global or mixed) model."""

    kind: ClassVar[str] = "model_aggregated"

    round_idx: int
    participants: Tuple[int, ...]
    strategy: str
    version: int
    time_s: float


@dataclass(frozen=True)
class RoundCompleted(EngineEvent):
    """A barrier round closed."""

    kind: ClassVar[str] = "round_completed"

    round_idx: int
    makespan_s: float
    mean_time_s: float
    participant_count: int
    accuracy: Optional[float]
    time_s: float


@dataclass(frozen=True)
class ScheduleComputed(EngineEvent):
    """A scheduler produced the round's shard allocation.

    ``predicted_*`` fields are the scheduler's own cost-model forecast
    (from the :class:`repro.sched.base.Assignment`), not the realised
    round outcome — comparing them against the subsequent
    :class:`RoundCompleted` quantifies the profile-vs-reality gap.
    """

    kind: ClassVar[str] = "schedule_computed"

    round_idx: int
    scheduler: str
    shard_counts: Tuple[int, ...]
    shard_size: int
    predicted_makespan_s: float
    predicted_energy_j: Optional[float]
    time_s: float
    #: host milliseconds the solver took (perf_counter-measured);
    #: deliberately *not* virtual time — solver cost is real cost
    solve_ms: Optional[float] = None


@dataclass(frozen=True)
class CohortAccounted(EngineEvent):
    """A fleet-scale round accounted its cohort in one aggregate.

    Emitted by the columnar :class:`repro.fleet.round.RoundCore`
    *instead of* per-client ``ClientDispatched``/``ClientFinished``
    events once the cohort outgrows the configured detail threshold —
    per-client streams at 10⁶ devices would dwarf the simulation
    itself. ``energy_j`` is the summed battery energy the cohort
    drained; ``mean_battery_soc`` the cohort's mean state of charge
    after the round (``None`` for an empty cohort).
    """

    kind: ClassVar[str] = "cohort_accounted"

    round_idx: int
    cohort_size: int
    eligible_count: int
    energy_j: float
    mean_battery_soc: Optional[float]
    time_s: float


@dataclass(frozen=True)
class DeviceJoined(EngineEvent):
    """A device registered with the control-plane device registry.

    ``client_id`` is the fleet row the registry claimed for the device;
    ``device_id`` the caller-chosen stable identity. ``time_s`` is the
    *service* clock (seconds since the orchestrator started) — the only
    event family stamped from :func:`repro.serve.clock.now` rather than
    the engine's virtual clock, because membership is an external fact
    the simulation does not control.
    """

    kind: ClassVar[str] = "device_joined"

    device_id: str
    client_id: int
    time_s: float


@dataclass(frozen=True)
class DeviceLost(EngineEvent):
    """A registered device left the population.

    ``reason`` is ``"timeout"`` (missed heartbeats past the dead
    threshold) or ``"deregistered"`` (explicit leave). Same service
    clock convention as :class:`DeviceJoined`.
    """

    kind: ClassVar[str] = "device_lost"

    device_id: str
    client_id: int
    reason: str
    time_s: float


Listener = Callable[[EngineEvent], None]


class EventBus:
    """Synchronous fan-out of engine events to subscribed listeners.

    Besides per-bus listeners there is a process-wide listener list so a
    telemetry sink can capture every engine created while it is active
    (how ``repro run … --telemetry out.jsonl`` taps experiments that
    build their simulations internally).
    """

    _global_listeners: ClassVar[List[Listener]] = []

    def __init__(self) -> None:
        self._listeners: List[Listener] = []

    def subscribe(self, listener: Listener) -> Callable[[], None]:
        """Register a listener; returns an unsubscribe callable."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def emit(self, event: EngineEvent) -> None:
        for listener in (*self._listeners, *EventBus._global_listeners):
            listener(event)

    # -- process-wide listeners -----------------------------------------
    @classmethod
    def add_global_listener(cls, listener: Listener) -> None:
        cls._global_listeners.append(listener)

    @classmethod
    def remove_global_listener(cls, listener: Listener) -> None:
        if listener in cls._global_listeners:
            cls._global_listeners.remove(listener)
