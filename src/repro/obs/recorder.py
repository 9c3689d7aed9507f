"""The engine-facing fold: events in, metrics + spans + energy out.

:class:`ObsRecorder` is an :class:`~repro.engine.events.EventBus`
listener (the **live** construction path — subscribe it to one engine,
or install it process-wide next to the telemetry sink) and a JSONL
replayer (the **offline** path — :meth:`ObsRecorder.from_jsonl`
rebuilds the exact same metrics and spans from a saved capture). There
is one fold, :meth:`ObsRecorder.__call__`, over typed events: it looks
the event's ``kind`` up in one handler table and hands the same event
to the span builder. The offline path owns no per-kind code — it
decodes each dict with :func:`repro.engine.events.event_from_dict`
(the codec module is the only place that knows the wire format) and
calls the live fold, so ``repro obs summary`` over a file agrees with a
live dashboard over the bus by construction.

The columnar round narrates a round's clients as two **column batches**
(:class:`~repro.engine.events.ClientsDispatched` /
:class:`~repro.engine.events.ClientsFinished`), and the recorder takes
them whole (``accepts_columns``). There is one fold per client kind,
the column handler, with one bulk call per instrument: a row — the
object-path engine's, the async and gossip drivers', a replayed
line's — is folded as its one-row batch
(:meth:`~repro.engine.events.EventColumns.of`), so a batch and its
rows leave the same series, bit for bit, by construction. A capture
written from batches holds the rows' lines, so replay never sees one.
Either way a client is recorded once, in the energy ledger: the five
``client``-labelled series are read from its rows at export
(:meth:`~repro.obs.energy.EnergyLedger.client_series`), so the
per-client work of a fold is the ledger update and the pooled
histograms.

The live path never builds a dict, which keeps the per-event cost far
inside the engine-overhead budget (see
``benchmarks/test_engine_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Union,
)

from ..engine.events import (
    EVENT_TYPES,
    META_KIND,
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    ClientsDispatched,
    ClientsFinished,
    CohortAccounted,
    DeviceJoined,
    DeviceLost,
    EngineEvent,
    EventBus,
    EventColumns,
    ModelAggregated,
    RoundCompleted,
    ScheduleComputed,
    event_from_dict,
)
from ..engine.telemetry import JsonlSink, read_jsonl_meta
from . import catalog
from .energy import EnergyLedger
from .metrics import CounterChild, GaugeChild, MetricRegistry
from .prof import PROFILER
from .spans import Span, SpanBuilder

if TYPE_CHECKING:
    from ..engine.engine import RoundEngine

__all__ = [
    "RoundSummary",
    "ObsRecorder",
    "observe_engine",
    "record_telemetry",
]


class RoundSummary:
    """Compact per-round record the dashboard renders."""

    __slots__ = (
        "round_idx",
        "makespan_s",
        "mean_time_s",
        "participants",
        "dropped",
        "energy_j",
        "accuracy",
        "straggler_id",
        "straggler_s",
    )

    def __init__(
        self,
        round_idx: int,
        makespan_s: float,
        mean_time_s: float,
        participants: int,
        dropped: int,
        energy_j: float,
        accuracy: Optional[float],
        straggler_id: Optional[int],
        straggler_s: float,
    ) -> None:
        self.round_idx = round_idx
        self.makespan_s = makespan_s
        self.mean_time_s = mean_time_s
        self.participants = participants
        self.dropped = dropped
        self.energy_j = energy_j
        self.accuracy = accuracy
        self.straggler_id = straggler_id
        self.straggler_s = straggler_s


class ObsRecorder:
    """Fold the engine event stream into observability state.

    Parameters
    ----------
    metrics:
        Registry to populate; a fresh one by default. Passing one puts
        the run's series next to the caller's own instruments (serve's
        request metrics). A registry holds one recorder: the per-client
        series are views of this recorder's energy ledger, so a second
        recorder on the same registry raises.
    trace:
        Build the span tree (disable for metric-only captures).
    run_name:
        Name of the root span / trace process.
    """

    def __init__(
        self,
        metrics: Optional[MetricRegistry] = None,
        trace: bool = True,
        run_name: str = "run",
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.spans: Optional[SpanBuilder] = (
            SpanBuilder(run_name) if trace else None
        )
        self.energy = EnergyLedger()
        self.rounds: List[RoundSummary] = []
        self.n_events = 0
        #: filled by :meth:`from_jsonl`
        self.schema_version: Optional[int] = None
        self.corrupt_lines = 0

        m = self.metrics
        self._events_total = m.counter(catalog.EVENTS_TOTAL)
        #: one bound series per event kind (every typed event's kind is
        #: declared; a replayed undeclared kind takes the keyword form)
        self._events_of = {
            kind: self._events_total.labels(kind=kind)
            for kind in EVENT_TYPES
        }
        # every series the fold writes is bound once, here or on the
        # first event naming its label value: a warm fold does no label
        # key work (binding makes no series, so the export is unchanged)
        self._clock = m.gauge(catalog.CLOCK_SECONDS).labels()
        self._rounds_total = m.counter(catalog.ROUNDS_TOTAL).labels()
        self._round_makespan = m.histogram(
            catalog.ROUND_MAKESPAN_SECONDS
        ).labels()
        self._round_mean = m.gauge(catalog.ROUND_MEAN_TIME_SECONDS).labels()
        self._round_energy = m.histogram(catalog.ROUND_ENERGY_JOULES).labels()
        self._participants = m.gauge(catalog.PARTICIPANTS).labels()
        self._accuracy = m.gauge(catalog.ACCURACY).labels()
        self._client_compute = m.histogram(
            catalog.CLIENT_COMPUTE_SECONDS
        ).labels()
        self._client_comm = m.histogram(catalog.CLIENT_COMM_SECONDS).labels()
        self._client_round = m.histogram(
            catalog.CLIENT_ROUND_SECONDS
        ).labels()
        # the per-client series are read from the ledger, never written
        for series in self.energy.client_series():
            m.add(series)
        self._aggregations = m.counter(catalog.AGGREGATIONS_TOTAL)
        #: strategy -> its aggregations series
        self._aggregations_of: Dict[str, CounterChild] = {}
        self._solves = m.counter(catalog.SCHEDULE_SOLVES_TOTAL)
        self._predicted_makespan = m.gauge(
            catalog.SCHEDULE_PREDICTED_MAKESPAN_SECONDS
        )
        #: scheduler -> its (solves, predicted makespan) series
        self._schedule_of: Dict[str, tuple[CounterChild, GaugeChild]] = {}
        self._cohort_size = m.gauge(catalog.COHORT_SIZE).labels()
        self._fleet_eligible = m.gauge(catalog.FLEET_ELIGIBLE).labels()

        # in-flight round state
        self._round_dropped: Dict[int, int] = {}
        self._round_straggler: Dict[int, tuple[int, float]] = {}
        #: control-plane membership tallies (serve runs only)
        self.device_joins = 0
        self.device_losses = 0

    #: :meth:`EventBus.emit` hands column batches over whole
    accepts_columns: ClassVar[bool] = True

    # -- the fold ----------------------------------------------------------
    def __call__(self, event: Union[EngineEvent, EventColumns]) -> None:
        """EventBus listener: fold one typed engine event, or one
        column batch of them."""
        if isinstance(event, EventColumns):
            self._fold_columns(event)
            return
        with PROFILER.phase("fold"):
            kind = event.kind
            self.n_events += 1
            self._events_of[kind].inc()
            time_s = getattr(event, "time_s", None)
            if isinstance(time_s, (int, float)):
                self._clock.set(time_s)
            handler = self._HANDLERS.get(kind)
            if handler is not None:
                handler(self, event)
            if self.spans is not None:
                self.spans.fold(event)

    def _fold_columns(self, batch: EventColumns) -> None:
        """What folding ``batch.rows()`` one by one would leave behind,
        with bulk instrument calls where the row kind has a column
        handler."""
        kind = batch.row_type.kind
        handler = self._COLUMN_HANDLERS.get(kind)
        if handler is None:
            for row in batch.rows():
                self(row)
            return
        n = len(batch)
        if n == 0:
            return
        with PROFILER.phase("fold"):
            self.n_events += n
            self._events_of[kind].inc(n)
            handler(self, batch)
            if self.spans is not None:
                self.spans.fold_columns(batch)

    # -- per-kind handlers (metrics + energy; spans fold in __call__) ------
    def _on_client_dispatched(self, event: ClientDispatched) -> None:
        """A dispatch moves no metric; it only opens the client's span."""

    def _on_client_finished(self, event: ClientFinished) -> None:
        self._on_clients_finished(ClientsFinished.of(event))

    def _on_clients_dispatched(self, batch: ClientsDispatched) -> None:
        self._clock.set(batch.time_s)

    def _on_clients_finished(self, batch: ClientsFinished) -> None:
        client_ids, total_s = batch.client_ids, batch.total_s
        self._clock.set(batch.finish_s[-1])
        self._client_compute.observe_each(batch.compute_s)
        self._client_comm.observe_each(batch.comm_s)
        self._client_round.observe_each(total_s)
        self.energy.on_clients_finished(
            client_ids, total_s, batch.energy_j, batch.battery_soc
        )
        # the rows' scan keeps the first of equal maxima, as max() does,
        # and starts from the round's straggler so far: a NaN cell that
        # leads the batch must not hide a later cell above it. The first
        # cell equal to the max is the one max() kept (a NaN max is the
        # leading cell, found by identity)
        straggler = self._round_straggler.get(batch.round_idx)
        if straggler is not None:
            client_ids = (straggler[0], *client_ids)
            total_s = (straggler[1], *total_s)
        slowest = total_s.index(max(total_s))
        self._round_straggler[batch.round_idx] = (
            client_ids[slowest],
            total_s[slowest],
        )

    def _on_client_dropped(self, event: ClientDropped) -> None:
        self.energy.on_client_dropped(event.client_id)
        self._round_dropped[event.round_idx] = (
            self._round_dropped.get(event.round_idx, 0) + 1
        )

    def _on_model_aggregated(self, event: ModelAggregated) -> None:
        strategy = event.strategy
        series = self._aggregations_of.get(strategy)
        if series is None:
            series = self._aggregations.labels(strategy=strategy)
            self._aggregations_of[strategy] = series
        series.inc()

    def _on_round_completed(self, event: RoundCompleted) -> None:
        round_idx = event.round_idx
        self._rounds_total.inc()
        self._round_makespan.observe(event.makespan_s)
        self._round_mean.set(event.mean_time_s)
        self._participants.set(event.participant_count)
        if event.accuracy is not None:
            self._accuracy.set(event.accuracy)
        self.energy.on_round_completed(round_idx)
        round_j = self.energy.round_energy[-1][1]
        self._round_energy.observe(round_j)
        straggler = self._round_straggler.pop(round_idx, None)
        self.rounds.append(
            RoundSummary(
                round_idx=round_idx,
                makespan_s=event.makespan_s,
                mean_time_s=event.mean_time_s,
                participants=event.participant_count,
                dropped=self._round_dropped.pop(round_idx, 0),
                energy_j=round_j,
                accuracy=event.accuracy,
                straggler_id=straggler[0] if straggler else None,
                straggler_s=straggler[1] if straggler else 0.0,
            )
        )

    def _on_schedule_computed(self, event: ScheduleComputed) -> None:
        scheduler = event.scheduler
        series = self._schedule_of.get(scheduler)
        if series is None:
            series = (
                self._solves.labels(scheduler=scheduler),
                self._predicted_makespan.labels(scheduler=scheduler),
            )
            self._schedule_of[scheduler] = series
        solves, predicted_makespan = series
        solves.inc()
        predicted_makespan.set(event.predicted_makespan_s)

    def _on_cohort_accounted(self, event: CohortAccounted) -> None:
        self._cohort_size.set(event.cohort_size)
        self._fleet_eligible.set(event.eligible_count)
        self.energy.on_cohort_accounted(
            event.round_idx,
            event.cohort_size,
            event.energy_j,
            event.mean_battery_soc,
        )

    def _on_device_joined(self, event: DeviceJoined) -> None:
        self.device_joins += 1

    def _on_device_lost(self, event: DeviceLost) -> None:
        self.device_losses += 1

    #: the one per-kind dispatch: ``kind`` -> handler. Every event in
    #: ``EVENT_TYPES`` has an entry and every entry names a declared
    #: event (``tests/test_live_invariants.py``).
    _HANDLERS: ClassVar[Dict[str, Callable[["ObsRecorder", Any], None]]] = {
        ClientDispatched.kind: _on_client_dispatched,
        ClientFinished.kind: _on_client_finished,
        ClientDropped.kind: _on_client_dropped,
        ModelAggregated.kind: _on_model_aggregated,
        RoundCompleted.kind: _on_round_completed,
        ScheduleComputed.kind: _on_schedule_computed,
        CohortAccounted.kind: _on_cohort_accounted,
        DeviceJoined.kind: _on_device_joined,
        DeviceLost.kind: _on_device_lost,
    }

    #: row kind -> handler of a column batch of that kind. Not a second
    #: taxonomy: a batch is its rows, and one of a kind without an entry
    #: is folded as them through ``_HANDLERS``.
    _COLUMN_HANDLERS: ClassVar[
        Dict[str, Callable[["ObsRecorder", Any], None]]
    ] = {
        ClientDispatched.kind: _on_clients_dispatched,
        ClientFinished.kind: _on_clients_finished,
    }

    # -- replay: decode, then the fold above -------------------------------
    def add_dict(self, payload: Mapping[str, object]) -> None:
        """Fold one JSONL event dict (offline construction path)."""
        kind = payload.get("event")
        if not isinstance(kind, str) or kind == META_KIND:
            return
        event = event_from_dict(payload)
        if event is not None:
            self(event)
        else:
            # a kind this version does not declare: counted, nothing else
            self.n_events += 1
            self._events_total.inc(kind=kind)

    def replay(
        self, events: Iterable[Mapping[str, object]]
    ) -> "ObsRecorder":
        """Fold a saved event stream; returns self for chaining."""
        for event in events:
            self.add_dict(event)
        return self

    @classmethod
    def from_jsonl(
        cls,
        path: Union[str, Path],
        trace: bool = True,
        run_name: Optional[str] = None,
    ) -> "ObsRecorder":
        """Rebuild metrics + spans + energy from a telemetry JSONL."""
        name = run_name if run_name is not None else Path(path).stem
        read = read_jsonl_meta(path)
        recorder = cls(trace=trace, run_name=name)
        recorder.schema_version = read.schema_version
        recorder.corrupt_lines = read.corrupt_lines
        return recorder.replay(read.events)

    # -- outputs -----------------------------------------------------------
    def finish_spans(self) -> List[Span]:
        """Close and return the span tree roots ([] when tracing off)."""
        if self.spans is None:
            return []
        return self.spans.finish()

    def event_counts(self) -> Dict[str, int]:
        """Events seen per kind, name-sorted."""
        return {
            labels[0]: int(count)
            for labels, count in self._events_total.series()
        }



@contextmanager
def observe_engine(
    engine: "RoundEngine",
    metrics: Optional[MetricRegistry] = None,
    trace: bool = True,
    run_name: str = "run",
) -> Iterator[ObsRecorder]:
    """Subscribe a recorder to one engine's bus for the context."""
    recorder = ObsRecorder(metrics=metrics, trace=trace, run_name=run_name)
    unsubscribe: Callable[[], None] = engine.bus.subscribe(recorder)
    try:
        yield recorder
    finally:
        unsubscribe()


@contextmanager
def record_telemetry(
    path: Union[str, Path, None] = None,
) -> Iterator[ObsRecorder]:
    """Capture every engine event emitted while the context is active.

    The process-wide twin of :func:`observe_engine`: every
    :class:`EventBus` forwards to the yielded metric-only recorder, so
    experiments that build their simulations internally are captured
    too; ``path`` additionally streams the raw events there as JSON
    lines. The sink is closed on exit, also when the body raises.
    """
    recorder = ObsRecorder(trace=False)
    sink = JsonlSink(path) if path is not None else None
    EventBus.add_global_listener(recorder)
    if sink is not None:
        EventBus.add_global_listener(sink)
    try:
        yield recorder
    finally:
        EventBus.remove_global_listener(recorder)
        if sink is not None:
            EventBus.remove_global_listener(sink)
            sink.close()
