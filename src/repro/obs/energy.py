"""Energy and battery accounting over the event stream.

The paper's core constraint is that clients run on batteries: a
schedule is only as good as the Joules it burns and the charge it
leaves behind. :class:`EnergyLedger` folds the per-client energy that
:class:`~repro.engine.events.ClientFinished` events carry (drained by
the device simulator — see :mod:`repro.device.battery` /
:mod:`repro.device.energy`) into the per-device and per-round ledgers
the dashboard and the metric catalog surface: cumulative Joules per
client, fleet energy per round, and the latest state of charge.

At fleet scale the engine stops narrating individual clients: a
:class:`~repro.engine.events.CohortAccounted` event carries one
aggregate per round instead, and the ledger folds it into the same
per-round and fleet-wide totals (per-client detail is simply absent
above the runner's detail threshold — by design, not by omission).

The ledger's client rows are the run's one per-client record: the
catalog's five ``client``-labelled series (busy seconds, rounds,
Joules, state of charge, drops) are read-through views of them
(:meth:`EnergyLedger.client_series`), so a finished client is written
once, here, and rendered from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from . import catalog
from .metrics import Counter, Gauge, LabelValues, Metric, MetricSpec

__all__ = ["ClientEnergy", "EnergyLedger"]


@dataclass
class ClientEnergy:
    """Running totals for one client's device."""

    client_id: int
    energy_j: float = 0.0
    busy_s: float = 0.0
    rounds: int = 0
    dropped: int = 0
    last_soc: Optional[float] = None
    #: some finish reported its Joules: what gives the client an energy
    #: series (one that reported none has ``energy_j`` 0.0 and no series)
    metered: bool = False


@dataclass
class EnergyLedger:
    """Per-client and per-round energy bookkeeping."""

    clients: Dict[int, ClientEnergy] = field(default_factory=dict)
    #: (round index, fleet Joules) per completed round, in stream order
    round_energy: List[Tuple[int, float]] = field(default_factory=list)
    #: Joules accounted in cohort aggregates (no per-client breakdown)
    cohort_energy_j: float = 0.0
    #: (round index, cohort size) per cohort-accounted round
    cohort_rounds: List[Tuple[int, int]] = field(default_factory=list)
    #: latest cohort mean state of charge, if any round reported one
    last_cohort_soc: Optional[float] = None
    _current_round_j: float = 0.0

    def _client(self, client_id: int) -> ClientEnergy:
        entry = self.clients.get(client_id)
        if entry is None:
            entry = ClientEnergy(client_id=client_id)
            self.clients[client_id] = entry
        return entry

    def on_client_finished(
        self,
        client_id: int,
        total_s: float,
        energy_j: Optional[float],
        battery_soc: Optional[float],
    ) -> None:
        self.on_clients_finished(
            (client_id,), (total_s,), (energy_j,), (battery_soc,)
        )

    def on_clients_finished(
        self,
        client_ids: Iterable[int],
        total_s: Iterable[float],
        energy_j: Iterable[Optional[float]],
        battery_soc: Iterable[Optional[float]],
    ) -> None:
        """One finished client per row of the columns, in order (the
        round's Joules add up left to right)."""
        clients = self.clients
        round_j = self._current_round_j
        for client_id, busy_s, joules, soc in zip(
            client_ids, total_s, energy_j, battery_soc
        ):
            entry = clients.get(client_id)
            if entry is None:
                entry = clients[client_id] = ClientEnergy(client_id)
            entry.rounds += 1
            entry.busy_s += busy_s
            if joules is not None:
                entry.energy_j += joules
                entry.metered = True
                round_j += joules
            if soc is not None:
                entry.last_soc = soc
        self._current_round_j = round_j

    def on_client_dropped(self, client_id: int) -> None:
        self._client(client_id).dropped += 1

    def on_cohort_accounted(
        self,
        round_idx: int,
        cohort_size: int,
        energy_j: float,
        mean_battery_soc: Optional[float],
    ) -> None:
        """Fold one aggregate cohort round (columnar fleet path)."""
        self.cohort_energy_j += energy_j
        self._current_round_j += energy_j
        self.cohort_rounds.append((round_idx, cohort_size))
        if mean_battery_soc is not None:
            self.last_cohort_soc = mean_battery_soc

    def on_round_completed(self, round_idx: int) -> None:
        self.round_energy.append((round_idx, self._current_round_j))
        self._current_round_j = 0.0

    @property
    def total_energy_j(self) -> float:
        """Fleet-wide cumulative Joules (per-client + cohort
        aggregates)."""
        return (
            sum(c.energy_j for c in self.clients.values())
            + self.cohort_energy_j
        )

    def by_client(self) -> List[ClientEnergy]:
        """Client ledgers sorted by id."""
        return [self.clients[k] for k in sorted(self.clients)]

    def client_series(self) -> List[Union[Counter, Gauge]]:
        """The catalog's per-client series as views of these rows, one
        instrument per series family; writing to one raises.

        A row has a series where a per-event counter or gauge would
        have had one: busy seconds and rounds once it finished, Joules
        once a finish reported them, state of charge once a finish
        reported it, drops once it was dropped.
        """
        series: List[Union[Counter, Gauge]] = [
            _ClientCounter(spec, self, read) for spec, read in _COUNTERS
        ]
        series.append(_ClientGauge(catalog.BATTERY_SOC, self, _last_soc))
        return series


#: a row's value in one per-client series; ``None`` for no series
RowValue = Callable[[ClientEnergy], Optional[float]]


class _ClientSeries(Metric):
    """What the read-through instruments share: every read builds the
    family's series from the ledger's rows, keyed as a written
    instrument keys them."""

    def __init__(
        self, spec: MetricSpec, ledger: EnergyLedger, read: RowValue
    ) -> None:
        super().__init__(spec)
        self._ledger = ledger
        self._read = read

    def _table(self) -> Dict[LabelValues, float]:
        read = self._read
        table: Dict[LabelValues, float] = {}
        for row in self._ledger.clients.values():
            value = read(row)
            if value is not None:
                table[(str(row.client_id),)] = value
        return table

    def _read_only(self) -> TypeError:
        return TypeError(
            f"metric {self.name!r} is read from the energy ledger; "
            "fold events into the recorder instead"
        )


class _ClientCounter(_ClientSeries, Counter):
    def inc(self, amount: float = 1.0, **labels: object) -> None:
        raise self._read_only()


class _ClientGauge(_ClientSeries, Gauge):
    def set(self, value: float, **labels: object) -> None:
        raise self._read_only()


def _last_soc(row: ClientEnergy) -> Optional[float]:
    return None if row.last_soc is None else float(row.last_soc)


#: the ledger-backed counters: catalog spec, and each row's value
_COUNTERS: Tuple[Tuple[MetricSpec, RowValue], ...] = (
    (
        catalog.CLIENT_BUSY_SECONDS_TOTAL,
        lambda row: row.busy_s if row.rounds else None,
    ),
    (
        catalog.CLIENT_ROUNDS_TOTAL,
        lambda row: float(row.rounds) if row.rounds else None,
    ),
    (
        catalog.CLIENT_ENERGY_JOULES_TOTAL,
        lambda row: row.energy_j if row.metered else None,
    ),
    (
        catalog.CLIENTS_DROPPED_TOTAL,
        lambda row: float(row.dropped) if row.dropped else None,
    ),
)
