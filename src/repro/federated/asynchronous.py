"""Asynchronous federated learning (the alternative of Sec. II-B).

The paper motivates synchronous aggregation by noting that asynchronous
updates "could easily lead to divergence and amortize the savings in
computation time". This module implements the asynchronous counterpart
(FedAsync-style staleness-weighted mixing) so that claim can be tested
against the same device simulator:

* every client trains continuously on its own virtual timeline — no
  round barrier, stragglers never block anyone;
* when a client finishes a local epoch it pushes its model; the server
  mixes it into the global model with a staleness-decayed weight
  (``constant`` / ``hinge`` / ``poly`` decay, the FedAsync family; the
  default ``poly`` with ``a = 1`` is the classic
  ``eta = base_mix / (1 + staleness)``);
* the client then pulls the fresh global model and starts over.

This class *is* the async driver: it owns the server-side state
(``version``, the applied ``updates``, what each client pulled and when)
and the event loop, a priority queue over completion times. The shared
:class:`repro.engine.RoundEngine` supplies the substrates — devices
whose thermal state persists across a client's successive epochs
(sustained load, exactly the regime where stragglers throttle), local
SGD, the virtual clock and the event bus — through its client step
(``client_compute``, ``train_client``, ``emit_dispatched``,
``emit_finished``); the merge rule is
:class:`~repro.engine.aggregation.StalenessWeighted`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.partition import UserData
from ..data.synthetic import Dataset
from ..device.device import MobileDevice
from ..engine.aggregation import StalenessWeighted
from ..engine.engine import RoundEngine
from ..engine.events import EventBus, ModelAggregated
from ..models.network import Sequential

__all__ = ["AsyncConfig", "AsyncUpdate", "AsyncFederatedSimulation"]


@dataclass
class AsyncConfig:
    """Hyper-parameters of an asynchronous FL run."""

    batch_size: int = 20
    lr: float = 0.05
    momentum: float = 0.9
    #: mixing weight at staleness 0
    base_mix: float = 0.6
    #: staleness-decay family: "constant", "hinge" or "poly" (FedAsync)
    staleness_decay: str = "poly"
    #: decay exponent (poly) / slope (hinge)
    decay_a: float = 1.0
    #: hinge knee: no decay up to this staleness
    decay_b: float = 10.0
    #: evaluate the global model every k applied updates
    eval_every_updates: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.base_mix <= 1:
            raise ValueError("base_mix must be in (0, 1]")
        if self.staleness_decay not in StalenessWeighted.DECAYS:
            raise ValueError(
                f"staleness_decay must be one of "
                f"{StalenessWeighted.DECAYS}"
            )
        if self.eval_every_updates <= 0:
            raise ValueError("eval_every_updates must be positive")

    def strategy(self) -> StalenessWeighted:
        """The engine aggregation strategy this config describes."""
        return StalenessWeighted(
            base_mix=self.base_mix,
            decay=self.staleness_decay,
            a=self.decay_a,
            b=self.decay_b,
        )


@dataclass
class AsyncUpdate:
    """One applied asynchronous update."""

    time_s: float
    user_id: int
    staleness: int
    mix: float
    accuracy: Optional[float]


class AsyncFederatedSimulation:
    """Event-driven asynchronous FL over simulated devices: the server
    state and the completion-time loop, over a shared engine's
    substrates."""

    def __init__(
        self,
        dataset: Dataset,
        model: Sequential,
        users: Sequence[UserData],
        devices: Sequence[MobileDevice],
        config: Optional[AsyncConfig] = None,
    ) -> None:
        if len(devices) != len(users):
            raise ValueError("one device per user required")
        if not any(u.size > 0 for u in users):
            raise ValueError("no user holds any data")
        self.config = config or AsyncConfig()
        cfg = self.config
        self.engine = RoundEngine(
            dataset,
            model,
            users,
            devices=devices,
            batch_size=cfg.batch_size,
            lr=cfg.lr,
            momentum=cfg.momentum,
            seed=cfg.seed,
        )
        self.model = model
        self.users = self.engine.users
        self.devices = list(devices)
        self.strategy = cfg.strategy()
        #: global model version = number of updates applied so far
        self.version = 0
        self.updates: List[AsyncUpdate] = []
        # per client, for the epoch in flight: the version and weights
        # it pulled, when it started, and the energy the epoch drained
        n = len(self.users)
        self._pulled_version = [0] * n
        self._start_weights: List[Optional[np.ndarray]] = [None] * n
        self._epoch_start = [0.0] * n
        self._epoch_energy = [0.0] * n

    @property
    def clock_s(self) -> float:
        return self.engine.clock_s

    @property
    def events(self) -> EventBus:
        """The engine's typed event stream (subscribe for telemetry)."""
        return self.engine.bus

    def _epoch_time(self, j: int) -> float:
        """Virtual seconds for user j's next local epoch (device state
        persists: continuous training heats the device)."""
        return self.engine.client_compute(j, epochs=1)[0]

    # -- the event loop --------------------------------------------------
    def _start_epoch(self, j: int) -> float:
        """User j pulls the global model and starts one local epoch;
        returns the epoch's virtual duration."""
        engine = self.engine
        self._pulled_version[j] = self.version
        self._start_weights[j] = self.model.get_weights()
        self._epoch_start[j] = engine.clock_s
        engine.emit_dispatched(self.version, j, self.users[j].size)
        epoch_s, self._epoch_energy[j] = engine.client_compute(j, epochs=1)
        return epoch_s

    def _apply_update(self, j: int, time_s: float) -> AsyncUpdate:
        """User j's epoch lands at ``time_s``: train from what it
        pulled, merge with the staleness-decayed weight, narrate."""
        engine = self.engine
        start_weights = self._start_weights[j]
        if start_weights is None:
            raise RuntimeError(f"user {j} has no in-flight epoch to apply")
        result = engine.train_client(j, start_weights, epochs=1)
        staleness = self.version - self._pulled_version[j]
        new, mix = self.strategy.merge(
            self.model.get_weights(), result.weights, staleness
        )
        self.model.set_weights(new)
        self.version += 1
        accuracy = None
        if self.version % self.config.eval_every_updates == 0:
            accuracy = engine.final_accuracy()
        update = AsyncUpdate(
            time_s=time_s,
            user_id=j,
            staleness=staleness,
            mix=mix,
            accuracy=accuracy,
        )
        self.updates.append(update)
        engine.emit_finished(
            self.version,
            j,
            time_s - self._epoch_start[j],
            0.0,
            time_s,
            self._epoch_energy[j],
        )
        engine.bus.emit(
            ModelAggregated(
                round_idx=self.version,
                participants=(j,),
                strategy=self.strategy.name,
                version=self.version,
                time_s=time_s,
            )
        )
        return update

    def run(self, horizon_s: float) -> List[AsyncUpdate]:
        """Run the event loop until the virtual clock passes the horizon.

        Returns the updates applied during this call. Calling ``run``
        again resumes from the current clock, but in-flight epochs that
        had not completed by the previous horizon are *restarted* (the
        scheduler re-pulls the current global model), not continued.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        engine = self.engine
        start_count = len(self.updates)
        heap: List[Tuple[float, int]] = []
        for j, user in enumerate(self.users):
            if user.size == 0:
                continue
            finish = engine.clock_s + self._start_epoch(j)
            heapq.heappush(heap, (finish, j))
        end = engine.clock_s + horizon_s
        while heap:
            finish, j = heapq.heappop(heap)
            if finish > end:
                # Client finishes beyond the horizon; stop here.
                engine.clock_s = end
                break
            engine.clock_s = finish
            self._apply_update(j, finish)
            next_finish = finish + self._start_epoch(j)
            heapq.heappush(heap, (next_finish, j))
        return self.updates[start_count:]

    def final_accuracy(self) -> float:
        return self.engine.final_accuracy()

    def update_counts(self) -> np.ndarray:
        """Applied updates per user — fast devices dominate, the
        imbalance behind async's bias/divergence risk."""
        counts = np.zeros(len(self.users), dtype=np.int64)
        for u in self.updates:
            counts[u.user_id] += 1
        return counts
