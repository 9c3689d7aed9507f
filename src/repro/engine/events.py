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

All events are frozen dataclasses with a stable ``kind`` string. They
are **row events**: one object per happening, and the only thing that
is ever on the wire.

The columnar round (:class:`repro.fleet.round.RoundCore`) holds a
round's dispatches and finishes as columns, so it narrates them as two
**column batches** instead of one object per client:
:class:`ClientsDispatched` and :class:`ClientsFinished`. A batch is a
column *of* row events, not an event — its meaning is
:meth:`EventColumns.rows`, the ``ClientDispatched`` /
``ClientFinished`` rows in order, and nothing else defines it. It has
no ``kind``, is not in :data:`EVENT_TYPES`, and never reaches a
capture: :meth:`EventColumns.to_jsonl` writes exactly the lines its
rows would, and :meth:`EventBus.emit` hands it whole only to a listener
that declares ``accepts_columns`` (:class:`~repro.obs.ObsRecorder`, the
:class:`~repro.engine.telemetry.JsonlSink`); every other listener
receives the rows. The async and gossip drivers and the object-path
engine emit rows — their arrivals really are single.

This module is also the **codec** of the telemetry wire format, in both
directions, and the only module that knows it: :data:`EVENT_TYPES` is
the taxonomy (``kind`` → class), :meth:`EngineEvent.to_dict` encodes an
event as the ``{"event": kind, ...fields}`` payload,
:meth:`EngineEvent.to_jsonl` is that payload as the line the JSON-lines
sink writes, and :func:`event_from_dict` decodes a payload back into
the typed event. Both directions are driven by each class's declared
fields, so adding a field or an event is an edit to this file alone;
consumers (:mod:`repro.obs`) decode first and then handle typed events,
whether the stream arrives live off a bus or from a saved capture.

Decoding is tolerant, because captures outlive the code that wrote
them (older schema versions, trimmed files). Per declared field type:

=====================  ==============================================
``int`` / ``float``    a JSON number, else ``0`` / ``0.0``
``Optional[float]``    a JSON number, else ``None``
``str``                a JSON string, else ``"?"``
``Tuple[int, ...]``    a JSON list (as a tuple), else ``()``
=====================  ==============================================

A payload whose ``event`` is not a declared kind decodes to ``None``.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
    cast,
    get_type_hints,
)

__all__ = [
    "META_KIND",
    "EVENT_TYPES",
    "event_from_dict",
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
    "EventColumns",
    "ClientsDispatched",
    "ClientsFinished",
    "EventBus",
]


class EngineEvent:
    """Base class for all engine events."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload: ``{"event": kind, ...fields}``, fields in
        declaration order, tuples as lists."""
        payload: Dict[str, object] = {"event": self.kind}
        for name, _ in _FIELD_CODECS[self.kind]:
            value = getattr(self, name)
            payload[name] = list(value) if isinstance(value, tuple) else value
        return payload

    def to_jsonl(self) -> str:
        """The event's line in a telemetry JSONL, newline included."""
        return json.dumps(self.to_dict()) + "\n"


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


#: the ``event`` value of the one line of a telemetry JSONL that is not
#: an event: the schema-version header the sink writes first
META_KIND = "telemetry_meta"

#: the event taxonomy: wire ``kind`` -> class
EVENT_TYPES: Dict[str, Type[EngineEvent]] = {
    cls.kind: cls
    for cls in (
        ClientDispatched,
        ClientFinished,
        ClientDropped,
        ModelAggregated,
        RoundCompleted,
        ScheduleComputed,
        CohortAccounted,
        DeviceJoined,
        DeviceLost,
    )
}


def _int(value: object) -> int:
    if isinstance(value, int):
        return int(value)
    # JSON also spells Infinity/NaN, which int() cannot take
    if isinstance(value, float) and math.isfinite(value):
        return int(value)
    return 0


def _float(value: object) -> float:
    return float(value) if isinstance(value, (int, float)) else 0.0


def _opt_float(value: object) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _str(value: object) -> str:
    return value if isinstance(value, str) else "?"


def _int_tuple(value: object) -> Tuple[int, ...]:
    return tuple(value) if isinstance(value, list) else ()


Coercion = Callable[[object], object]

#: declared field type -> coercion of the JSON value found under it
_COERCIONS: Dict[object, Coercion] = {
    int: _int,
    float: _float,
    Optional[float]: _opt_float,
    str: _str,
    Tuple[int, ...]: _int_tuple,
}


def _field_codecs(
    cls: Type[EngineEvent],
) -> Tuple[Tuple[str, Coercion], ...]:
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _COERCIONS[hints[f.name]]) for f in fields(cast(Any, cls))
    )


#: kind -> ((field name, coercion), ...) in declaration order; a field
#: declared with a type that has no coercion fails here, at import
_FIELD_CODECS = {
    kind: _field_codecs(cls) for kind, cls in EVENT_TYPES.items()
}


def event_from_dict(
    payload: Mapping[str, object],
) -> Optional[EngineEvent]:
    """Decode one wire payload into its typed event (never raises).

    Missing or mistyped fields take the defaults in the module
    docstring; ``None`` for a kind :data:`EVENT_TYPES` does not declare
    (the :data:`META_KIND` header, a future event).
    """
    kind = payload.get("event")
    if not isinstance(kind, str) or kind not in EVENT_TYPES:
        return None
    build: Callable[..., EngineEvent] = EVENT_TYPES[kind]
    return build(
        *[coerce(payload.get(name)) for name, coerce in _FIELD_CODECS[kind]]
    )


def _line_template(kind: str) -> str:
    """``kind``'s JSONL line with a ``%s`` slot per declared field."""
    slots = {name: "%s" for name, _ in _FIELD_CODECS[kind]}
    line = json.dumps({"event": kind, **slots}) + "\n"
    return line.replace('"%s"', "%s")


#: a column with more than one distinct value in this many cells is
#: spelled cell by cell. Measured on 192-row ``ClientsFinished`` batches
#: with six float columns of d distinct values each (CPython 3.11,
#: 2-core Xeon): reuse took 0.37x the per-cell time at d/n = 2 %, 0.57x
#: at 25 %, 0.79x at 50 %, 0.96x at 67 % and 1.07x at 83 %; cutting
#: at half keeps a clear win.
_REUSE_EVERY = 2
#: the leading cells, judged by the same rule first, so a mostly
#: distinct column (a round's ``battery_soc``) is not counted whole:
#: counting all 192 cells cost an all-distinct batch ~8 % on top of
#: spelling it cell by cell; counting 32 is within run-to-run noise
_HEAD = 32


def _spelled(column: Tuple[Any, ...]) -> Sequence[Any]:
    """``column`` ready for ``%s`` slots, which spell an int or a float
    as ``repr`` does: each distinct value's string spelled once and
    reused, or the cells themselves when the column is mostly distinct
    or mixes types (``1`` and ``1.0`` are equal but spelled apart)."""
    head = column[:_HEAD]
    if len(set(head)) * _REUSE_EVERY > len(head):
        return column
    distinct = set(column)
    if len(distinct) * _REUSE_EVERY > len(column):
        return column
    if len(set(map(type, column))) > 1:
        return column
    spelling = {value: repr(value) for value in distinct}
    if 0 in spelling:
        # 0.0 == -0.0, so one key cannot spell both: zeros go one by one
        return [spelling[v] if v else repr(v) for v in column]
    return list(map(spelling.__getitem__, column))


class EventColumns:
    """A column of row events of one kind, defined as its :meth:`rows`.

    Not an event: no ``kind``, never on the wire (see the module
    docstring). A subclass names the row class and lays its values out
    in :meth:`cells`; everything else follows from those two.
    """

    row_type: ClassVar[Type[EngineEvent]]
    client_ids: Tuple[int, ...]

    def cells(self) -> Tuple[Any, ...]:
        """The row event's fields in declaration order: a tuple is a
        column, one cell per row; anything else is every row's value."""
        raise NotImplementedError

    def __post_init__(self) -> None:
        if len({len(c) for c in self.cells() if isinstance(c, tuple)}) > 1:
            raise ValueError("columns must be equally long")

    def __len__(self) -> int:
        return len(self.client_ids)

    def rows(self) -> List[EngineEvent]:
        """The row events this batch stands for, in order."""
        build: Callable[..., EngineEvent] = self.row_type
        n = len(self)
        per_row: List[Iterable[Any]] = [
            c if isinstance(c, tuple) else repeat(c, n) for c in self.cells()
        ]
        return [build(*row) for row in zip(*per_row)]

    def to_jsonl(self) -> str:
        """The rows' JSONL lines, byte for byte, without building the
        rows: ``json`` spells an int or a finite float the way ``repr``
        does, so a value shared by every row is spelled once and each
        distinct value of a column once (:func:`_spelled`); a batch
        holding anything else takes the rows' encoder."""
        cells = self.cells()
        columns = [c for c in cells if isinstance(c, tuple)]
        shared = [c for c in cells if not isinstance(c, tuple)]
        if not all(map(math.isfinite, chain(shared, *columns))):
            return "".join([row.to_jsonl() for row in self.rows()])
        line = _LINE_TEMPLATES[self.row_type.kind] % tuple(
            "%s" if isinstance(c, tuple) else repr(c) for c in cells
        )
        return "".join(map(line.__mod__, zip(*map(_spelled, columns))))


@dataclass(frozen=True)
class ClientsDispatched(EventColumns):
    """One round's :class:`ClientDispatched` rows, all at ``time_s``."""

    row_type: ClassVar[Type[EngineEvent]] = ClientDispatched

    round_idx: int
    client_ids: Tuple[int, ...]
    n_samples: Tuple[int, ...]
    time_s: float

    def cells(self) -> Tuple[Any, ...]:
        return (self.round_idx, self.client_ids, self.n_samples, self.time_s)


@dataclass(frozen=True)
class ClientsFinished(EventColumns):
    """One round's :class:`ClientFinished` rows; ``finish_s`` is each
    row's ``time_s``."""

    row_type: ClassVar[Type[EngineEvent]] = ClientFinished

    round_idx: int
    client_ids: Tuple[int, ...]
    compute_s: Tuple[float, ...]
    comm_s: Tuple[float, ...]
    total_s: Tuple[float, ...]
    finish_s: Tuple[float, ...]
    energy_j: Tuple[float, ...]
    battery_soc: Tuple[float, ...]

    def cells(self) -> Tuple[Any, ...]:
        return (
            self.round_idx,
            self.client_ids,
            self.compute_s,
            self.comm_s,
            self.total_s,
            self.finish_s,
            self.energy_j,
            self.battery_soc,
        )


#: row kind -> its line template, for the kinds that come in columns
_LINE_TEMPLATES = {
    cls.row_type.kind: _line_template(cls.row_type.kind)
    for cls in (ClientsDispatched, ClientsFinished)
}


Listener = Callable[[EngineEvent], None]
#: what a listener that declares ``accepts_columns`` is called with
ColumnListener = Callable[[Union[EngineEvent, EventColumns]], None]


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

    def emit(self, event: Union[EngineEvent, EventColumns]) -> None:
        """Call every listener with ``event``, in subscription order.

        A column batch goes as one call to a listener whose class
        declares ``accepts_columns = True`` — looked up under any
        ``__wrapped__`` chain, so a tracing wrapper changes nothing —
        and as its rows, built once, to every other listener.
        """
        listeners = (*self._listeners, *EventBus._global_listeners)
        if not isinstance(event, EventColumns):
            for listener in listeners:
                listener(event)
            return
        rows: Optional[List[EngineEvent]] = None
        for listener in listeners:
            if getattr(inspect.unwrap(listener), "accepts_columns", False):
                cast(ColumnListener, listener)(event)
                continue
            if rows is None:
                rows = event.rows()
            for row in rows:
                listener(row)

    # -- process-wide listeners -----------------------------------------
    @classmethod
    def add_global_listener(cls, listener: Listener) -> None:
        cls._global_listeners.append(listener)

    @classmethod
    def remove_global_listener(cls, listener: Listener) -> None:
        if listener in cls._global_listeners:
            cls._global_listeners.remove(listener)
