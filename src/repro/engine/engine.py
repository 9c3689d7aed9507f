"""The round engine: shared substrates plus the paper's synchronous round.

One :class:`RoundEngine` owns the simulation substrates — per-user
data, the device/thermal/battery simulators, the network links, the
scratch model, the shared RNG, the virtual clock and the
:class:`~repro.engine.events.EventBus` — and drives one loop over them:
:meth:`RoundEngine.run_sync_round`, synchronous FedAvg with an optional
straggler-dropout deadline (the paper's Sec. VII loop).

The alternatives the paper only tests against own their loops in
:mod:`repro.federated`: ``AsyncFederatedSimulation`` (a completion-time
heap, staleness-weighted merges) and ``DecentralizedSimulation`` (local
SGD plus one gossip step). They build an engine for the substrates and
reach it through one client step — :meth:`RoundEngine.client_compute`,
:meth:`RoundEngine.train_client`, :meth:`RoundEngine.emit_dispatched`
and :meth:`RoundEngine.emit_finished` — so every mode narrates a client
with the same two events, built in one place (see
:mod:`repro.engine.events` for the taxonomy; :class:`repro.obs.ObsRecorder`
is the fold over it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..data.partition import UserData
from ..data.synthetic import Dataset
from ..device.device import MobileDevice
from ..device.workload import TrainingWorkload
from ..models.flops import model_training_flops
from ..models.network import Sequential
from ..network.link import Link
from ..network.transfer import round_comm_cost
from ..obs.prof import PROFILER
from .aggregation import AggregationStrategy, SyncFedAvg
from .events import (
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    EventBus,
    ModelAggregated,
    RoundCompleted,
)
from .execution import LocalTrainingResult, evaluate_accuracy, train_local
from .telemetry import ConvergenceHistory, RoundRecord

if TYPE_CHECKING:
    from ..federated.dropout import DropoutPolicy
    from ..sched.base import Assignment

__all__ = ["RoundEngine", "ParameterServerLike", "SchedulerBindingLike"]


class ParameterServerLike(Protocol):
    """What the sync driver needs from a parameter server.

    Structural so :mod:`repro.federated.server` can depend on the
    engine rather than the other way around.
    """

    model: Sequential
    round_idx: int

    def global_weights(self) -> np.ndarray: ...


class SchedulerBindingLike(Protocol):
    """What the sync driver needs from a bound round planner (see
    :class:`repro.sched.binding.EngineSchedulerBinding`)."""

    def plan_round(
        self,
        engine: "RoundEngine",
        round_idx: int,
        eligible: Sequence[int],
    ) -> "Assignment": ...


class RoundEngine:
    """Shared execution core: substrates + event stream + the
    synchronous round.

    Parameters
    ----------
    dataset, model, users:
        Global dataset, the global model (mutated in place by the sync
        round and the async driver; the gossip driver only clones it)
        and per-user local data.
    strategy:
        The :class:`AggregationStrategy` the sync round aggregates
        with; FedAvg by default.
    devices, links:
        Optional per-user device simulators and network links for the
        virtual clock. Without devices rounds report zero time. This is
        the one door for any population: the calibrated
        :class:`MobileDevice` testbeds, or a columnar store's object
        views (``store.as_devices()`` / ``store.as_links()``). Every
        eligible user is scheduled; the engine draws no cohort.
    dropout:
        Optional deadline-based straggler-dropout policy (sync round
        only); requires ``devices``.

    ``batch_size``, ``local_epochs`` and ``lr`` are validated here, so
    every simulation that builds an engine fails at construction.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: Sequential,
        users: Sequence[UserData],
        strategy: Optional[AggregationStrategy] = None,
        devices: Optional[Sequence[MobileDevice]] = None,
        links: Optional[Sequence[Link]] = None,
        dropout: Optional["DropoutPolicy"] = None,
        *,
        batch_size: int = 20,
        local_epochs: int = 1,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        eval_every: int = 1,
        aggregation_s: float = 1.0,
        min_soc: float = 0.0,
        seed: int = 0,
        bus: Optional[EventBus] = None,
    ) -> None:
        if devices is not None and len(devices) != len(users):
            raise ValueError("one device per user required")
        if links is not None and len(links) != len(users):
            raise ValueError("one link per user required")
        if batch_size <= 0 or local_epochs <= 0:
            raise ValueError("batch_size and local_epochs must be positive")
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.dataset = dataset
        self.model = model
        self.users = list(users)
        if not self.users:
            raise ValueError("need at least one user")
        self.devices = list(devices) if devices is not None else None
        self.links = list(links) if links is not None else None
        if dropout is not None and devices is None:
            raise ValueError(
                "straggler dropout needs devices (deadlines are defined "
                "over simulated round times)"
            )
        self.dropout = dropout
        self.strategy = strategy or SyncFedAvg()
        self.batch_size = batch_size
        self.local_epochs = local_epochs
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.eval_every = eval_every
        self.aggregation_s = aggregation_s
        self.min_soc = min_soc
        self.bus = bus or EventBus()

        self._scratch = model.clone()
        self._flops = model_training_flops(model)
        #: per-user data sizes as one column — battery gating masks
        #: this instead of walking UserData objects
        self._user_sizes = np.array(
            [u.size for u in self.users], dtype=np.int64
        )
        self._rng = np.random.default_rng(seed)
        self.history = ConvergenceHistory()
        self.clock_s = 0.0

        #: bound by the sync façade (structurally typed via
        #: :class:`ParameterServerLike`); the engine never constructs
        #: one so the server module can depend on the engine, not vice
        #: versa.
        self.server: Optional[ParameterServerLike] = None

        #: optional repro.sched planner (structurally typed via
        #: :class:`SchedulerBindingLike`); bound via bind_scheduler so
        #: repro.sched depends on the engine, not vice versa. When set,
        #: each sync round's per-user sample counts come from the
        #: planned assignment.
        self.scheduler_binding: Optional[SchedulerBindingLike] = None
        self._round_samples: Optional[np.ndarray] = None

    # -- shared substrate helpers ----------------------------------------
    def bind_server(self, server: ParameterServerLike) -> None:
        """Attach the parameter server the sync driver aggregates into."""
        self.server = server

    def bind_scheduler(
        self, binding: Optional[SchedulerBindingLike]
    ) -> None:
        """Attach a per-round shard planner (see
        :class:`repro.sched.binding.EngineSchedulerBinding`); pass
        ``None`` to detach and return to the users' native data sizes."""
        self.scheduler_binding = binding
        self._round_samples = None

    def _client_samples(self, j: int) -> int:
        """Samples user j trains this round: the planned allocation if a
        scheduler is bound, its full local data otherwise."""
        if self._round_samples is not None:
            return int(self._round_samples[j])
        return self.users[j].size

    def battery_soc(self, j: int) -> Optional[float]:
        """User j's current state of charge, or ``None`` without
        devices."""
        if self.devices is None:
            return None
        return self.devices[j].battery.soc

    def eligible_clients(self) -> List[int]:
        """Users holding data whose battery clears the participation
        floor, in dispatch order.

        One boolean mask over the data-size column; with a
        participation floor set, one SoC read per device per round.
        """
        mask = self._user_sizes > 0
        if self.devices is not None and self.min_soc > 0.0:
            soc = np.fromiter(
                (d.battery.soc for d in self.devices),
                dtype=np.float64,
                count=len(self.devices),
            )
            mask &= soc >= self.min_soc
        out: List[int] = np.flatnonzero(mask).tolist()
        return out

    def client_compute(
        self, j: int, epochs: int = 1
    ) -> Tuple[float, float]:
        """Advance user j's device through its local workload and return
        ``(compute_seconds, energy_joules)`` — the simulated compute
        time and the battery energy drained (thermal/battery state
        persists). Without devices both are 0.0."""
        if self.devices is None:
            return 0.0, 0.0
        workload = TrainingWorkload(
            flops_per_sample=self._flops,
            n_samples=self._client_samples(j),
            batch_size=self.batch_size,
            epochs=epochs,
            model_name=self.model.name,
        )
        trace = self.devices[j].run_workload(workload, record=False)
        return trace.total_time_s, trace.energy_j

    def client_comm_time(self, j: int) -> float:
        """Round-trip model transfer seconds over user j's link."""
        if self.links is None:
            return 0.0
        return round_comm_cost(self.model, self.links[j]).total_s

    def train_client(
        self, j: int, start_weights: np.ndarray, epochs: int
    ) -> LocalTrainingResult:
        """Local SGD for user j from the given starting weights."""
        indices = self.users[j].indices
        if self._round_samples is not None:
            # a bound scheduler caps this round's training data; the
            # allocation is clamped to the data the user actually holds
            indices = indices[: min(len(indices), self._client_samples(j))]
        x, y = self.dataset.subset(indices)
        self._scratch.set_weights(start_weights)
        return train_local(
            self._scratch,
            x,
            y,
            epochs=epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            rng=self._rng,
        )

    def final_accuracy(self) -> float:
        """Accuracy of the current global model on the test split."""
        return evaluate_accuracy(
            self.model, self.dataset.x_test, self.dataset.y_test
        )

    # -- client narration (the only ClientDispatched / ClientFinished
    # constructors of the object path) -----------------------------------
    def emit_dispatched(self, round_idx: int, j: int, n_samples: int) -> None:
        """Narrate user j starting ``n_samples`` of local work now."""
        self.bus.emit(
            ClientDispatched(
                round_idx=round_idx,
                client_id=j,
                n_samples=n_samples,
                time_s=self.clock_s,
            )
        )

    def emit_finished(
        self,
        round_idx: int,
        j: int,
        compute_s: float,
        comm_s: float,
        time_s: float,
        energy_j: Optional[float],
    ) -> None:
        """Narrate user j's update arriving at ``time_s``; the battery
        is read now, after the work drained it."""
        self.bus.emit(
            ClientFinished(
                round_idx=round_idx,
                client_id=j,
                compute_s=compute_s,
                comm_s=comm_s,
                total_s=compute_s + comm_s,
                time_s=time_s,
                energy_j=energy_j,
                battery_soc=self.battery_soc(j),
            )
        )

    # -- the synchronous round -------------------------------------------
    def _dispatch_round(
        self, round_idx: int, participants: Sequence[int]
    ) -> np.ndarray:
        """Run every participant's workload on its device and return
        per-user round times (compute + comm), emitting dispatch and
        completion events in client order."""
        times = np.zeros(len(self.users))
        for j in participants:
            self.emit_dispatched(round_idx, j, self._client_samples(j))
            compute_s = 0.0
            comm_s = 0.0
            energy_j: Optional[float] = None
            if self.devices is not None:
                compute_s, energy_j = self.client_compute(
                    j, epochs=self.local_epochs
                )
                comm_s = self.client_comm_time(j)
            times[j] = compute_s + comm_s
            self.emit_finished(
                round_idx,
                j,
                compute_s,
                comm_s,
                self.clock_s + times[j],
                energy_j,
            )
        return times

    def _idle_to_barrier(self, times: np.ndarray, makespan: float) -> None:
        """Let fast devices cool down while waiting for the straggler."""
        if self.devices is None:
            return
        for j, user in enumerate(self.users):
            wait = makespan - times[j] + self.aggregation_s
            if user.size > 0 and wait > 0:
                self.devices[j].idle(wait)

    def run_sync_round(self, train: bool = True) -> RoundRecord:
        """One synchronous round: dispatch, barrier, aggregate, record.

        ``train=False`` skips the actual SGD and aggregation (used by
        timing-only experiments, e.g. Fig. 5/7 makespan grids).
        """
        server = self.server
        if server is None:
            raise RuntimeError(
                "no parameter server bound (call bind_server first)"
            )
        # Battery opt-out must be decided before the round runs (the
        # device would not even start training).
        self._round_samples = None
        with PROFILER.phase("cohort"):
            eligible = self.eligible_clients()
            if not eligible:
                if any(u.size > 0 for u in self.users):
                    raise RuntimeError(
                        "every data-holding device is below min_soc"
                    )
                raise RuntimeError("no user holds any data")
        round_idx = server.round_idx + 1
        if self.scheduler_binding is not None:
            with PROFILER.phase("plan"):
                assignment = self.scheduler_binding.plan_round(
                    self, round_idx, eligible
                )
            samples = np.asarray(
                assignment.samples_per_user(), dtype=np.int64
            )
            if samples.shape != (len(self.users),):
                raise ValueError(
                    "scheduler assignment must cover every user"
                )
            self._round_samples = samples
            self.bus.emit(
                assignment.schedule_computed(round_idx, self.clock_s)
            )
            # users planned out of the round neither compute nor train
            eligible = [j for j in eligible if samples[j] > 0]
            if not eligible:
                self._round_samples = None
                raise RuntimeError(
                    "the scheduler assigned no data to any eligible user"
                )
        with PROFILER.phase("dispatch"):
            times = self._dispatch_round(round_idx, eligible)
        active = eligible
        aggregators = active
        if self.dropout is not None:
            from ..federated.dropout import apply_deadline

            aggregators, dropped, makespan = apply_deadline(
                times, active, self.dropout
            )
            for j in dropped:
                self.bus.emit(
                    ClientDropped(
                        round_idx=round_idx,
                        client_id=j,
                        total_s=float(times[j]),
                        time_s=self.clock_s + makespan,
                    )
                )
        else:
            makespan = (
                float(times[active].max()) if self.devices is not None else 0.0
            )
        mean_t = (
            float(times[active].mean()) if self.devices is not None else 0.0
        )
        self._idle_to_barrier(times, makespan)

        if train:
            global_w = server.global_weights()
            weight_vectors: List[np.ndarray] = []
            counts: List[int] = []
            with PROFILER.phase("train"):
                for j in aggregators:
                    result = self.train_client(
                        j, global_w, epochs=self.local_epochs
                    )
                    weight_vectors.append(result.weights)
                    counts.append(result.n_samples)
            with PROFILER.phase("aggregate"):
                new_weights = self.strategy.aggregate(
                    weight_vectors, counts, global_weights=global_w
                )
            server.model.set_weights(new_weights)
            server.round_idx += 1
            self.bus.emit(
                ModelAggregated(
                    round_idx=round_idx,
                    participants=tuple(aggregators),
                    strategy=self.strategy.name,
                    version=server.round_idx,
                    time_s=self.clock_s + makespan,
                )
            )
        else:
            server.round_idx += 1

        accuracy: Optional[float] = None
        if train and (server.round_idx % self.eval_every == 0):
            accuracy = evaluate_accuracy(
                server.model, self.dataset.x_test, self.dataset.y_test
            )
        self.clock_s += makespan
        record = RoundRecord(
            round_idx=server.round_idx,
            makespan_s=makespan,
            mean_time_s=mean_t,
            accuracy=accuracy,
            participant_count=len(aggregators),
            per_user_time_s=times,
        )
        self.history.append(record)
        self.bus.emit(
            RoundCompleted(
                round_idx=server.round_idx,
                makespan_s=makespan,
                mean_time_s=mean_t,
                participant_count=len(aggregators),
                accuracy=accuracy,
                time_s=self.clock_s,
            )
        )
        self._round_samples = None
        return record
