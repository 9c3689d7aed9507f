"""Device registry: live membership over a columnar fleet.

The registry owns the ``alive`` column of a
:class:`~repro.fleet.store.FleetStore`: the store is pre-sized to the
service's device capacity with every row unclaimed (``alive=False``),
registration claims the next free row (``alive=True``), and death —
heartbeat timeout or explicit deregistration — releases it
(``alive=False``). Everything downstream (eligibility masks, cohort
sampling, cost matrices) already keys off ``alive``, so the scheduler
can only ever see currently-live devices *by construction*.

Device lifecycle::

    register           heartbeat            silence >= stale_after_s
  ─────────▶ registered ─────────▶ active ─────────────────▶ stale
                 │                   ▲                         │
                 │                   └──── heartbeat ──────────┘
                 │ silence >= dead_after_s                     │
                 └───────────────▶  dead  ◀────────────────────┘
                         (also: explicit deregister)

Transitions emit typed :class:`~repro.engine.events.DeviceJoined` /
:class:`~repro.engine.events.DeviceLost` events into the engine event
stream, stamped with the service clock (the :mod:`repro.serve.clock`
seam) — ``repro.obs`` records them as run-level membership instants.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..engine.events import DeviceJoined, DeviceLost, EventBus
from ..fleet.store import FleetStore
from ..obs import catalog
from ..obs.metrics import MetricRegistry
from .clock import NowFn, now as wall_now

__all__ = [
    "DEVICE_STATES",
    "RegistryError",
    "DeviceRecord",
    "DeviceRegistry",
    "HeartbeatMonitor",
]

STATE_REGISTERED = "registered"
STATE_ACTIVE = "active"
STATE_STALE = "stale"
STATE_DEAD = "dead"

#: lifecycle states in transition order
DEVICE_STATES = (
    STATE_REGISTERED,
    STATE_ACTIVE,
    STATE_STALE,
    STATE_DEAD,
)


class RegistryError(Exception):
    """A registry operation failed; ``code`` is the HTTP mapping."""

    def __init__(self, message: str, code: int = 400) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class DeviceRecord:
    """Bookkeeping for one registered device identity."""

    device_id: str
    client_id: int
    state: str
    registered_s: float
    last_seen_s: float
    heartbeats: int = 0
    lost_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "device_id": self.device_id,
            "client_id": self.client_id,
            "state": self.state,
            "registered_s": self.registered_s,
            "last_seen_s": self.last_seen_s,
            "heartbeats": self.heartbeats,
            "lost_reason": self.lost_reason,
        }


class DeviceRegistry:
    """Track live devices and mirror membership into the fleet store.

    Parameters
    ----------
    fleet:
        Capacity-sized store; the registry resets and then owns its
        ``alive`` column (rows are claimed in registration order).
    stale_after_s / dead_after_s:
        Silence thresholds: a device unheard for ``stale_after_s``
        turns stale (still schedulable — suspicion is not death), and
        for ``dead_after_s`` turns dead (row released, ``DeviceLost``).
    now_fn:
        Service clock; the real wall clock by default, a
        :class:`~repro.serve.clock.ManualClock` in deterministic tests.
    bus:
        Event bus membership events are emitted on.
    metrics:
        Registry for the ``repro_serve_devices`` gauge and the
        ``repro_serve_heartbeat_lag_seconds`` histogram.
    """

    def __init__(
        self,
        fleet: FleetStore,
        stale_after_s: float = 15.0,
        dead_after_s: float = 45.0,
        now_fn: Optional[NowFn] = None,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        if stale_after_s <= 0 or dead_after_s <= 0:
            raise ValueError("staleness thresholds must be positive")
        if dead_after_s <= stale_after_s:
            raise ValueError(
                "dead_after_s must exceed stale_after_s "
                "(stale is a warning state on the way to dead)"
            )
        self.fleet = fleet
        # the registry owns membership: all rows start unclaimed
        self.fleet.alive[:] = False
        self.stale_after_s = float(stale_after_s)
        self.dead_after_s = float(dead_after_s)
        self.now_fn: NowFn = now_fn if now_fn is not None else wall_now
        self.bus = bus if bus is not None else EventBus()
        m = metrics if metrics is not None else MetricRegistry()
        devices = m.gauge(catalog.SERVE_DEVICES)
        #: one bound series per lifecycle state
        self._devices_gauge = {
            state: devices.labels(state=state) for state in DEVICE_STATES
        }
        self._lag_hist = m.histogram(
            catalog.SERVE_HEARTBEAT_LAG_SECONDS
        ).labels()
        #: current identity per device id (dead records stay, so a
        #: late heartbeat gets 410-gone, not 404-unknown)
        self.records: Dict[str, DeviceRecord] = {}
        self._next_row = 0
        self._counts: Dict[str, int] = {s: 0 for s in DEVICE_STATES}
        for gauge in self._devices_gauge.values():
            gauge.set(0)

    # -- queries -----------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Devices per lifecycle state."""
        return dict(self._counts)

    def live_count(self) -> int:
        return int(self.fleet.alive.sum())

    def live_indices(self) -> np.ndarray:
        """Fleet rows of non-dead registered devices."""
        return np.flatnonzero(self.fleet.alive)

    def is_live(self, client_id: int) -> bool:
        return bool(self.fleet.alive[client_id])

    def get(self, device_id: str) -> DeviceRecord:
        record = self.records.get(device_id)
        if record is None:
            raise RegistryError(
                f"unknown device {device_id!r}", code=404
            )
        return record

    def snapshot(self) -> List[Dict[str, object]]:
        """All records (dead included), registration-ordered."""
        return [
            r.to_dict()
            for r in sorted(
                self.records.values(), key=lambda r: r.client_id
            )
        ]

    # -- transitions -------------------------------------------------------
    def _move(self, record: DeviceRecord, state: str) -> None:
        self._counts[record.state] -= 1
        self._counts[state] += 1
        self._devices_gauge[record.state].set(self._counts[record.state])
        self._devices_gauge[state].set(self._counts[state])
        record.state = state

    def register(
        self,
        device_id: str,
        data_size: Optional[int] = None,
        battery_soc: Optional[float] = None,
    ) -> DeviceRecord:
        """Claim a fleet row for a new device identity.

        A device id that died earlier may re-register (fresh row, fresh
        lifecycle); a currently-live duplicate is a conflict.
        """
        existing = self.records.get(device_id)
        if existing is not None and existing.state != STATE_DEAD:
            raise RegistryError(
                f"device {device_id!r} is already registered", code=409
            )
        if self._next_row >= self.fleet.n:
            raise RegistryError(
                f"registry full ({self.fleet.n} rows)", code=503
            )
        row = self._next_row
        # every column first: a write that fails claims no row
        if data_size is not None:
            self.fleet.data_size[row] = int(data_size)
        if battery_soc is not None:
            self.fleet.battery_j[row] = (
                battery_soc * self.fleet.capacity_j[row]
            )
        self.fleet.alive[row] = True
        self._next_row += 1
        now_s = self.now_fn()
        record = DeviceRecord(
            device_id=device_id,
            client_id=row,
            state=STATE_REGISTERED,
            registered_s=now_s,
            last_seen_s=now_s,
        )
        self.records[device_id] = record
        self._counts[STATE_REGISTERED] += 1
        self._devices_gauge[STATE_REGISTERED].set(
            self._counts[STATE_REGISTERED]
        )
        self.bus.emit(
            DeviceJoined(
                device_id=device_id, client_id=row, time_s=now_s
            )
        )
        return record

    def heartbeat(
        self, device_id: str, battery_soc: Optional[float] = None
    ) -> float:
        """Record a heartbeat; returns the observed lag in seconds."""
        record = self.get(device_id)
        if record.state == STATE_DEAD:
            raise RegistryError(
                f"device {device_id!r} is dead; re-register", code=410
            )
        now_s = self.now_fn()
        lag_s = max(0.0, now_s - record.last_seen_s)
        self._lag_hist.observe(lag_s)
        record.last_seen_s = now_s
        record.heartbeats += 1
        if battery_soc is not None:
            row = record.client_id
            self.fleet.battery_j[row] = (
                battery_soc * self.fleet.capacity_j[row]
            )
        if record.state != STATE_ACTIVE:
            self._move(record, STATE_ACTIVE)
        return lag_s

    def _kill(
        self, record: DeviceRecord, reason: str, now_s: float
    ) -> None:
        self.fleet.alive[record.client_id] = False
        record.lost_reason = reason
        self._move(record, STATE_DEAD)
        self.bus.emit(
            DeviceLost(
                device_id=record.device_id,
                client_id=record.client_id,
                reason=reason,
                time_s=now_s,
            )
        )

    def deregister(self, device_id: str) -> DeviceRecord:
        """Explicit leave: the device's row dies immediately."""
        record = self.get(device_id)
        if record.state == STATE_DEAD:
            raise RegistryError(
                f"device {device_id!r} is already dead", code=410
            )
        self._kill(record, "deregistered", self.now_fn())
        return record

    def check(self, now_s: Optional[float] = None) -> List[DeviceRecord]:
        """One monitor sweep: apply silence thresholds everywhere.

        Returns the records that died in this sweep. Callable directly
        (deterministic tests, simulated drivers) or periodically via
        :class:`HeartbeatMonitor`.
        """
        t = self.now_fn() if now_s is None else now_s
        died: List[DeviceRecord] = []
        for record in self.records.values():
            if record.state == STATE_DEAD:
                continue
            silence_s = t - record.last_seen_s
            if silence_s >= self.dead_after_s:
                self._kill(record, "timeout", t)
                died.append(record)
            elif (
                silence_s >= self.stale_after_s
                and record.state != STATE_STALE
            ):
                self._move(record, STATE_STALE)
        return died


class HeartbeatMonitor:
    """Background sweep task for a real (wall-clock) deployment.

    Deterministic tests never start this — they call
    :meth:`DeviceRegistry.check` by hand with a manual clock.
    """

    def __init__(
        self, registry: DeviceRegistry, interval_s: float = 1.0
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.registry = registry
        self.interval_s = interval_s
        self.sweeps = 0
        self._task: Optional["asyncio.Task[None]"] = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            self.registry.check()
            self.sweeps += 1

    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run()
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
