"""Span tracing over the engine event stream.

The engine narrates *points* in virtual time (dispatch, finish, round
completion); spans turn those points back into *intervals* with a
``run > round > client`` hierarchy, plus instant spans for scheduler
invocations and aggregations. :meth:`SpanBuilder.fold` takes typed
events and is the only fold; the two construction paths differ in where
the typed event comes from:

* **live** — the :class:`~repro.obs.recorder.ObsRecorder` hands it each
  event straight off an engine's :class:`~repro.engine.events.EventBus`;
* **replay** — :func:`spans_from_events` (and :meth:`SpanBuilder.add`)
  decode saved telemetry dicts with
  :func:`~repro.engine.events.event_from_dict` first, so traces can be
  cut from captures long after the run
  (``repro obs export-trace run.jsonl``).

A column batch of client rows (the columnar round's narration) goes
through :meth:`SpanBuilder.fold_columns`: the same spans as folding its
rows, opened or closed in one loop.

All timestamps are the engine's virtual clock. Async runs have no
``round_completed`` barrier; their per-version "rounds" are closed at
:meth:`SpanBuilder.finish` with the last time seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..engine.events import (
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    ClientsDispatched,
    ClientsFinished,
    DeviceJoined,
    DeviceLost,
    EngineEvent,
    EventColumns,
    ModelAggregated,
    RoundCompleted,
    ScheduleComputed,
    event_from_dict,
)

__all__ = ["Span", "SpanBuilder", "spans_from_events"]


@dataclass
class Span:
    """One named interval on the virtual clock.

    ``category`` is one of ``run`` / ``round`` / ``client`` /
    ``sched`` / ``aggregate`` / ``membership``; instant happenings are
    zero-duration spans (``start_s == end_s``).
    """

    name: str
    category: str
    start_s: float
    end_s: float
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def walk(self) -> Iterable["Span"]:
        """Pre-order traversal of this span's subtree."""
        yield self
        for child in self.children:
            yield from child.walk()


class SpanBuilder:
    """Fold engine events into a ``run > round > client`` span tree.

    Client spans are keyed by client id (every driver has at most one
    in-flight workload per client) and attached to the round of their
    *dispatch* — the async driver bumps the model version between a
    client's dispatch and its finish, so matching on the finish-side
    round index would orphan them.
    """

    def __init__(self, run_name: str = "run") -> None:
        self._run_name = run_name
        self._run: Optional[Span] = None
        #: open round spans by round index
        self._rounds: Dict[int, Span] = {}
        #: open client spans: client id -> (span, dispatch round)
        self._open_clients: Dict[int, Tuple[Span, int]] = {}
        self._last_time_s = 0.0
        self._finished = False

    # -- shared plumbing -------------------------------------------------
    def _touch(self, time_s: float, *later: float) -> Span:
        """The run span, opened at ``time_s`` if this is the first
        event; the run's end moves to the latest time seen. ``later``
        are the times of the rest of a batch: touching once with all of
        them is touching once per row (``max`` scans left to right)."""
        if self._finished:
            raise RuntimeError("SpanBuilder already finished")
        if self._run is None:
            self._run = Span(
                name=self._run_name,
                category="run",
                start_s=time_s,
                end_s=time_s,
            )
        self._last_time_s = max(self._last_time_s, time_s, *later)
        return self._run

    def _round(self, round_idx: int, time_s: float) -> Span:
        run = self._touch(time_s)
        span = self._rounds.get(round_idx)
        if span is None:
            span = Span(
                name=f"round {round_idx}",
                category="round",
                start_s=time_s,
                end_s=time_s,
                attrs={"round": round_idx},
            )
            self._rounds[round_idx] = span
            run.children.append(span)
        return span

    # -- per-kind handlers (reached through :meth:`fold`) ------------------
    def _on_client_dispatched(self, event: ClientDispatched) -> None:
        self._open_clients_at(
            event.round_idx,
            (event.client_id,),
            (event.n_samples,),
            event.time_s,
        )

    def _on_clients_dispatched(self, batch: ClientsDispatched) -> None:
        self._open_clients_at(
            batch.round_idx, batch.client_ids, batch.n_samples, batch.time_s
        )

    def _open_clients_at(
        self,
        round_idx: int,
        client_ids: Iterable[int],
        n_samples: Iterable[int],
        time_s: float,
    ) -> None:
        """Open one client span per id under round ``round_idx``."""
        children = self._round(round_idx, time_s).children
        open_clients = self._open_clients
        for client_id, n in zip(client_ids, n_samples):
            span = Span(
                f"client {client_id}",
                "client",
                time_s,
                time_s,
                {"client": client_id, "n_samples": n},
            )
            children.append(span)
            displaced = open_clients.get(client_id)
            if displaced is not None:
                # dispatched again before it finished (its round was
                # cancelled): the earlier span ends here, marked
                stale = displaced[0]
                stale.end_s = max(stale.start_s, time_s)
                stale.attrs["unclosed"] = True
            open_clients[client_id] = (span, round_idx)

    def _close_client(
        self, round_idx: int, client_id: int, total_s: float, time_s: float
    ) -> Span:
        """Close the client's span at ``time_s``; the caller has touched
        the run at that time."""
        entry = self._open_clients.pop(client_id, None)
        if entry is not None:
            span = entry[0]
        else:
            # no dispatch was seen (e.g. a trimmed capture): synthesise
            # the interval backwards from the reported duration
            span = Span(
                name=f"client {client_id}",
                category="client",
                start_s=time_s - total_s,
                end_s=time_s,
                attrs={"client": client_id},
            )
            self._round(round_idx, span.start_s).children.append(span)
        span.end_s = max(span.start_s, time_s)
        return span

    def _on_client_finished(self, event: ClientFinished) -> None:
        self._touch(event.time_s)
        span = self._close_client(
            event.round_idx, event.client_id, event.total_s, event.time_s
        )
        span.attrs["compute_s"] = event.compute_s
        span.attrs["comm_s"] = event.comm_s
        if event.energy_j is not None:
            span.attrs["energy_j"] = event.energy_j
        if event.battery_soc is not None:
            span.attrs["battery_soc"] = event.battery_soc

    def _on_clients_finished(self, batch: ClientsFinished) -> None:
        self._touch(*batch.finish_s)
        round_idx, close = batch.round_idx, self._close_client
        for client_id, compute_s, comm_s, total_s, time_s, joules, soc in zip(
            batch.client_ids,
            batch.compute_s,
            batch.comm_s,
            batch.total_s,
            batch.finish_s,
            batch.energy_j,
            batch.battery_soc,
        ):
            attrs = close(round_idx, client_id, total_s, time_s).attrs
            attrs["compute_s"] = compute_s
            attrs["comm_s"] = comm_s
            attrs["energy_j"] = joules
            attrs["battery_soc"] = soc

    def _on_client_dropped(self, event: ClientDropped) -> None:
        self._touch(event.time_s)
        self._close_client(
            event.round_idx, event.client_id, event.total_s, event.time_s
        ).attrs["dropped"] = True

    def _on_model_aggregated(self, event: ModelAggregated) -> None:
        self._round(event.round_idx, event.time_s).children.append(
            Span(
                name=f"aggregate [{event.strategy}]",
                category="aggregate",
                start_s=event.time_s,
                end_s=event.time_s,
                attrs={
                    "strategy": event.strategy,
                    "participants": len(event.participants),
                },
            )
        )

    def _on_round_completed(self, event: RoundCompleted) -> None:
        round_idx, time_s = event.round_idx, event.time_s
        span = self._rounds.pop(round_idx, None)
        if span is None:
            # completion without any per-client narration: the round is
            # the makespan-long interval ending here
            span = self._round(round_idx, time_s - event.makespan_s)
            self._rounds.pop(round_idx, None)
        self._touch(time_s)
        span.end_s = max(span.start_s, time_s)
        span.attrs["makespan_s"] = event.makespan_s
        span.attrs["participants"] = event.participant_count
        if event.accuracy is not None:
            span.attrs["accuracy"] = event.accuracy
        # clients the barrier outlived (e.g. a drop narrated without a
        # finish) close with the round
        for client_id, (client, parent_round) in list(
            self._open_clients.items()
        ):
            if parent_round == round_idx:
                client.end_s = max(client.start_s, time_s)
                client.attrs["unclosed"] = True
                del self._open_clients[client_id]

    def _on_schedule_computed(self, event: ScheduleComputed) -> None:
        attrs: Dict[str, object] = {
            "scheduler": event.scheduler,
            "predicted_makespan_s": event.predicted_makespan_s,
        }
        if event.predicted_energy_j is not None:
            attrs["predicted_energy_j"] = event.predicted_energy_j
        if event.solve_ms is not None:
            attrs["solve_ms"] = event.solve_ms
        self._round(event.round_idx, event.time_s).children.append(
            Span(
                name=f"schedule [{event.scheduler}]",
                category="sched",
                start_s=event.time_s,
                end_s=event.time_s,
                attrs=attrs,
            )
        )

    def _membership(
        self,
        event: Union[DeviceJoined, DeviceLost],
        attrs: Dict[str, object],
    ) -> None:
        """Record a membership instant (``device_joined``/``device_lost``).

        Membership is **run-level**: churn often arrives *between*
        rounds, and attaching such an event to whichever round span is
        still open would misattribute it to a round the device never
        participated in — so these instants hang directly off the run
        span, never off a round.
        """
        self._touch(event.time_s).children.append(
            Span(
                name=f"{event.kind} [{event.device_id}]",
                category="membership",
                start_s=event.time_s,
                end_s=event.time_s,
                attrs=attrs,
            )
        )

    def _on_device_joined(self, event: DeviceJoined) -> None:
        self._membership(
            event, {"device_id": event.device_id, "client": event.client_id}
        )

    def _on_device_lost(self, event: DeviceLost) -> None:
        self._membership(
            event,
            {
                "device_id": event.device_id,
                "client": event.client_id,
                "reason": event.reason,
            },
        )

    #: kind -> handler; a kind without an entry (``cohort_accounted``:
    #: an aggregate has no interval to draw) leaves the tree untouched
    _HANDLERS: ClassVar[Dict[str, Callable[["SpanBuilder", Any], None]]] = {
        ClientDispatched.kind: _on_client_dispatched,
        ClientFinished.kind: _on_client_finished,
        ClientDropped.kind: _on_client_dropped,
        ModelAggregated.kind: _on_model_aggregated,
        RoundCompleted.kind: _on_round_completed,
        ScheduleComputed.kind: _on_schedule_computed,
        DeviceJoined.kind: _on_device_joined,
        DeviceLost.kind: _on_device_lost,
    }

    #: row kind -> handler of a column batch of that kind; a batch of
    #: any other kind is folded as its rows
    _COLUMN_HANDLERS: ClassVar[
        Dict[str, Callable[["SpanBuilder", Any], None]]
    ] = {
        ClientDispatched.kind: _on_clients_dispatched,
        ClientFinished.kind: _on_clients_finished,
    }

    # -- the two construction paths ----------------------------------------
    def fold(self, event: EngineEvent) -> None:
        """Fold one typed event (the live path, and the only fold)."""
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def fold_columns(self, batch: EventColumns) -> None:
        """Fold a column batch: the same tree as :meth:`fold` over its
        rows, in one handler call where the row kind has one."""
        handler = self._COLUMN_HANDLERS.get(batch.row_type.kind)
        if handler is None:
            for row in batch.rows():
                self.fold(row)
        elif len(batch):  # no rows touch nothing, not even the round
            handler(self, batch)

    def add(self, payload: Mapping[str, object]) -> None:
        """Fold one JSONL event dict: decode it, then :meth:`fold`.
        Payloads of an undeclared kind (``telemetry_meta``, future
        events) are ignored."""
        event = event_from_dict(payload)
        if event is not None:
            self.fold(event)

    # -- completion --------------------------------------------------------
    def finish(self) -> List[Span]:
        """Close every open span at the last seen time; return roots."""
        if self._run is None:
            return []
        if not self._finished:
            for client, _parent in self._open_clients.values():
                client.end_s = max(client.start_s, self._last_time_s)
                client.attrs["unclosed"] = True
            self._open_clients.clear()
            for span in self._rounds.values():
                span.end_s = max(span.start_s, self._last_time_s)
            self._rounds.clear()
            self._run.end_s = max(self._run.start_s, self._last_time_s)
            self._finished = True
        return [self._run]


def spans_from_events(
    events: Iterable[Mapping[str, object]], run_name: str = "run"
) -> List[Span]:
    """Rebuild the span tree from saved telemetry event dicts."""
    builder = SpanBuilder(run_name)
    for event in events:
        builder.add(event)
    return builder.finish()

