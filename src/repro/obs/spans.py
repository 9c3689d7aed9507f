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
through :meth:`SpanBuilder.fold_columns`, and the client handlers are
the batch handlers: a client row is folded as its one-row batch
(:meth:`~repro.engine.events.EventColumns.of`), so a batch leaves the
same spans as its rows by construction. Client spans stay the columns
they arrived in: a dispatch batch is held as one block, the frozen batch
plus how each row closed, and only :meth:`SpanBuilder.finish` builds its
``Span`` objects, in place. On ``fleet-narrate`` (~193 clients a round)
that keeps 78 231 objects out of the run: peak RSS ~173 → ~141 MiB, the
span fold ~0.8 → ~0.09 ms a round; the building moved into the export.

All timestamps are the engine's virtual clock. Async runs have no
``round_completed`` barrier; their per-version "rounds" are closed at
:meth:`SpanBuilder.finish` with the last time seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat
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


#: how a client row closed: the ``ClientsFinished`` batch and row that
#: finished it, or ``("dropped" | "unclosed", time)``
_Close = Tuple[Union[ClientsFinished, str], float]


def _closed(attrs: Dict[str, object], close: _Close) -> float:
    """Add ``close``'s attrs to a client span's ``attrs``, in the order
    the rows' fold added them; return the time it closed at."""
    by, at = close
    if isinstance(by, str):
        attrs[by] = True
        return at
    row = int(at)
    attrs["compute_s"] = by.compute_s[row]
    attrs["comm_s"] = by.comm_s[row]
    # an unmetered row (async, gossip, no devices) has no Joules
    joules, soc = by.energy_j[row], by.battery_soc[row]
    if joules is not None:
        attrs["energy_j"] = joules
    if soc is not None:
        attrs["battery_soc"] = soc
    return by.finish_s[row]


class _Block:
    """One dispatch batch's client spans until :meth:`SpanBuilder.finish`:
    the batch, and per row how it closed (``None`` while open), unless
    one finish batch closed every row (``finished``)."""

    __slots__ = ("batch", "closes", "finished")

    def __init__(self, batch: ClientsDispatched) -> None:
        self.batch = batch
        self.closes: List[Optional[_Close]] = [None] * len(batch)
        self.finished: Optional[ClientsFinished] = None

    def spans(self) -> List[Span]:
        """The rows' client spans, every row closed."""
        batch, start_s = self.batch, self.batch.time_s
        closes: Iterable[Optional[_Close]] = self.closes
        if self.finished is not None:
            closes = zip(repeat(self.finished), count())
        spans: List[Span] = []
        rows = zip(batch.client_ids, batch.n_samples, closes)
        for client_id, n, close in rows:
            assert close is not None, "finish() closes every open row"
            attrs: Dict[str, object] = {"client": client_id, "n_samples": n}
            end_s = max(start_s, _closed(attrs, close))
            spans.append(
                Span(f"client {client_id}", "client", start_s, end_s, attrs)
            )
        return spans


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
        #: open client spans: client id -> (block, row)
        self._open_clients: Dict[int, Tuple[_Block, int]] = {}
        #: client blocks by the list they go in: it, and (position, block)s
        self._blocks: Dict[int, Tuple[List[Span], List[Tuple[int, _Block]]]]
        self._blocks = {}
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
        self._on_clients_dispatched(ClientsDispatched.of(event))

    def _on_clients_dispatched(self, batch: ClientsDispatched) -> None:
        """Open the batch's client spans, one block under its round."""
        ids, time_s = batch.client_ids, batch.time_s
        children = self._round(batch.round_idx, time_s).children
        block = _Block(batch)
        self._blocks.setdefault(id(children), (children, []))[1].append(
            (len(children), block)
        )
        open_clients = self._open_clients
        if len(set(ids)) == len(ids) and open_clients.keys().isdisjoint(ids):
            open_clients.update(zip(ids, zip(repeat(block), count())))
            return
        for row, client_id in enumerate(ids):
            displaced = open_clients.get(client_id)
            if displaced is not None:
                # dispatched again before it finished (its round was
                # cancelled): the earlier span ends here, marked
                stale, stale_row = displaced
                stale.closes[stale_row] = ("unclosed", time_s)
            open_clients[client_id] = (block, row)

    def _close_client(
        self, round_idx: int, client_id: int, total_s: float, close: _Close
    ) -> None:
        """Close the client's span as ``close`` says; the caller has
        touched the run at its time."""
        entry = self._open_clients.pop(client_id, None)
        if entry is not None:
            block, row = entry
            block.closes[row] = close
            return
        # no dispatch was seen (e.g. a trimmed capture): synthesise the
        # interval backwards from the reported duration
        attrs: Dict[str, object] = {"client": client_id}
        time_s = _closed(attrs, close)
        start_s = time_s - total_s
        end_s = max(start_s, time_s)
        span = Span(f"client {client_id}", "client", start_s, end_s, attrs)
        self._round(round_idx, start_s).children.append(span)

    def _on_client_finished(self, event: ClientFinished) -> None:
        self._on_clients_finished(ClientsFinished.of(event))

    def _on_clients_finished(self, batch: ClientsFinished) -> None:
        self._touch(*batch.finish_s)
        ids, open_clients = batch.client_ids, self._open_clients
        block, _ = open_clients.get(ids[0], (None, 0))
        # the common case: one dispatch finished whole, every row open
        if block and block.batch.client_ids == ids and not any(block.closes):
            block.finished = batch
            for client_id in ids:
                del open_clients[client_id]
            return
        # a subsequence of a dispatch (serve's k-of-n), rows of several
        # blocks, ids never dispatched: row by row
        round_idx, close = batch.round_idx, self._close_client
        for row, (client_id, total_s) in enumerate(zip(ids, batch.total_s)):
            close(round_idx, client_id, total_s, (batch, row))

    def _on_client_dropped(self, event: ClientDropped) -> None:
        self._touch(event.time_s)
        close: _Close = ("dropped", event.time_s)
        self._close_client(
            event.round_idx, event.client_id, event.total_s, close
        )

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
        for client_id, (block, row) in list(self._open_clients.items()):
            if block.batch.round_idx == round_idx:
                block.closes[row] = ("unclosed", time_s)
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
            for block, row in self._open_clients.values():
                block.closes[row] = ("unclosed", self._last_time_s)
            self._open_clients.clear()
            # each block becomes its client spans where it was appended
            for children, blocks in self._blocks.values():
                spans: List[Span] = []
                last = 0
                for at, block in blocks:
                    spans += children[last:at]
                    spans += block.spans()
                    last = at
                children[:] = spans + children[last:]
            self._blocks.clear()
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

