"""The round engine: shared substrates plus the paper's synchronous round.

One :class:`RoundEngine` owns the simulation substrates — per-user
data, the device/thermal/battery simulators, the network links, the
scratch model, the shared RNG, the virtual clock and the
:class:`~repro.engine.events.EventBus` — and drives one loop over them:
:meth:`RoundEngine.run_sync_round`, synchronous FedAvg with an optional
straggler-dropout deadline (the paper's Sec. VII loop). As the paper's
phones do, the round's clients train at once: their local SGD is split
by samples between the caller and resident training workers, with the
results of the one-by-one loop, bit for bit
(:meth:`RoundEngine._start_training`). The first round that splits
forks the workers; every later one sends each of them its share as one
message (start weights, hyper-parameters, each client's rows and
generator start) and reads back its results, so a round pays a message,
not a fork. A round without a deadline knows who trains once it is
planned, so it sends before the dispatch and the workers train while
the caller simulates the devices; a deadline round sends after the
dispatch. A round that raises while a worker owes it results kills and
reaps the workers; the rest are closed and reaped at interpreter exit.

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

import atexit
import copy
import os
import pickle
import signal
import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from ..cores import fork_safe, usable_cores
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

#: processes a sync round's local SGD may run in: the caller and at most
#: ``_TRAIN_PROCS - 1`` resident training workers (:func:`_workers`)
_TRAIN_PROCS = usable_cores()

#: a round is split only if it takes at least this many FLOPs of local
#: SGD off the caller's path: the round's trained samples less its
#: largest share's, × ``local_epochs`` × :func:`model_training_flops`.
#: The time a split saves is that work less the round's messages (start
#: weights and rows out, trained weights back) and the wait of a worker
#: that a pipe's wakeup puts on the sender's core until the balancer
#: moves it: on a host whose cores share no cache it is put there every
#: round (41 of 41 sends). Equal clients, 2-core Xeon under KVM, BLAS on
#: one thread, one warm worker, median of 41 alternating train steps
#: split / inline, two runs each. ``lenet_mini``, 10 clients: 1.14 /
#: 1.12 at 7 MFLOP moved, 1.15 / 1.15 at 14, 1.10 / 1.09 at 28 (0.69 /
#: 0.61 in two later runs), 0.69 / 0.58 at 42, 0.55 / 0.55 at 56, 0.52 /
#: 0.54 at 70 and 0.56 / 0.53 at 91 (``engine-train``'s rounds).
#: ``mlp``, 6 clients: 1.11 / 0.71 at 15, 1.08 / 0.61 at 30, 1.10 /
#: 0.66 at 45, 1.09 / 0.62 at 59 and 0.58 / 0.67 at 74: a run whose
#: worker waits reads ~1.1 up to 59. From 7·10⁷ on, no model measured
#: is slower in any run; below it, a split pays in some runs only. A
#: child forked per round read 2.0–2.6 at 3–14 and 0.70–1.36 at 56
#: in the same session.
_SPLIT_FLOPS = 7e7


#: what :func:`train_local` is called with besides the model, data and
#: generator: ``(epochs, batch_size, lr, momentum, weight_decay)``
_Hyper = Tuple[int, int, float, float, float]


class _Worker(NamedTuple):
    """A resident training worker: its pid, the write end of the pipe
    its commands arrive on and the read end of the one it answers on."""

    pid: int
    commands: BinaryIO
    replies: BinaryIO


class _Pool:
    """One process's training workers and the engine substrates they
    were forked with, held weakly so a pool keeps no engine alive."""

    def __init__(self, engine: "RoundEngine") -> None:
        self.dataset = weakref.ref(engine.dataset)
        self.scratch = weakref.ref(engine._scratch)
        self.workers: List[_Worker] = []

    def serves(self, engine: "RoundEngine") -> bool:
        """Whether the workers hold ``engine``'s data and scratch model."""
        return (
            self.dataset() is engine.dataset
            and self.scratch() is engine._scratch
        )


#: the training workers by the pid of the process that forked them, so
#: a forked child never uses or reaps its parent's: see :func:`_workers`
_pools: Dict[int, _Pool] = {}


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
        #: a layer drawing from a generator of its own (``Dropout``)
        #: draws in client order only if every client trains here
        self._layer_draws = any(
            isinstance(value, np.random.Generator)
            for layer in self._scratch.layers
            for value in vars(layer).values()
        )
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

    def _train_indices(self, j: int) -> np.ndarray:
        """The rows of the training set user j trains on this round."""
        indices = self.users[j].indices
        if self._round_samples is not None:
            # a bound scheduler caps this round's training data; the
            # allocation is clamped to the data the user actually holds
            indices = indices[: min(len(indices), self._client_samples(j))]
        return indices

    def train_client(
        self, j: int, start_weights: np.ndarray, epochs: int
    ) -> LocalTrainingResult:
        """Local SGD for user j from the given starting weights."""
        return self._train_on(j, start_weights, epochs, self._rng)

    def _train_on(
        self,
        j: int,
        start_weights: np.ndarray,
        epochs: int,
        rng: np.random.Generator,
    ) -> LocalTrainingResult:
        """:meth:`train_client` drawing its batch orders from ``rng``."""
        return _train_rows(
            self.dataset,
            self._scratch,
            self._train_indices(j),
            start_weights,
            self._hyper(epochs),
            rng,
        )

    def _hyper(self, epochs: int) -> _Hyper:
        """The hyper-parameters a client trains with for ``epochs``."""
        return (
            epochs,
            self.batch_size,
            self.lr,
            self.momentum,
            self.weight_decay,
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

    def _train_shares(self, sizes: Sequence[int]) -> List[List[int]]:
        """The shares a round training ``sizes`` samples per aggregator
        is cut into (:func:`_shares`): one when there is no second core
        or no ``os.fork``, when a thread runs beside the caller's that
        is not a parked pool worker (:func:`repro.cores.fork_safe`: a
        forked worker gets no copy of it, and of any lock it holds only
        the locked copy), when a layer draws from a generator of its
        own, or when the work the split takes off the caller's path is
        too small to pay for the messages (``_SPLIT_FLOPS``)."""
        if (
            _TRAIN_PROCS < 2
            or not hasattr(os, "fork")
            or not fork_safe()
            or self._layer_draws
        ):
            return _shares(sizes, 1)
        shares = _shares(sizes, _TRAIN_PROCS)
        longest = max(sum(sizes[i] for i in share) for share in shares)
        moved = (sum(sizes) - longest) * self.local_epochs * self._flops
        return shares if moved >= _SPLIT_FLOPS else _shares(sizes, 1)

    def _start_training(
        self, aggregators: Sequence[int], start_weights: np.ndarray
    ) -> "_Training":
        """Start local SGD for each aggregator from ``start_weights``:
        what :meth:`train_client` called for each in turn returns, bit
        for bit, on every core this round may use.

        Before anything trains, the engine generator is walked in client
        order: its state is kept as the client's start, then advanced by
        the ``local_epochs`` permutations :func:`train_local` draws for
        the client's samples (none for a client with none). A process
        that trains a client from a generator set to its start draws
        the batch orders the one-by-one loop draws, and ``self._rng``
        ends where that loop leaves it. The clients are then cut into
        shares by samples (:meth:`_train_shares`), and each share but
        the first, the caller's, which :meth:`_Training.collect` trains,
        is sent to a training worker (:func:`_workers`) as one message:
        the start weights, the hyper-parameters and, per client, its
        position, its rows and its generator start. With one share
        nothing trains until then.
        """
        sizes = [len(self._train_indices(j)) for j in aggregators]
        starts: List[Dict[str, Any]] = []
        for n in sizes:
            starts.append(self._rng.bit_generator.state)
            if n:
                for _ in range(self.local_epochs):
                    self._rng.permutation(n)
        replay = copy.deepcopy(self._rng)

        def train(i: int) -> LocalTrainingResult:
            replay.bit_generator.state = starts[i]
            return self._train_on(
                aggregators[i], start_weights, self.local_epochs, replay
            )

        shares = self._train_shares(sizes)
        training = _Training(aggregators, train, shares[0])
        if len(shares) == 1:
            return training
        try:
            workers = _workers(self, len(shares) - 1)
            for worker, share in zip(workers, shares[1:]):
                clients = [
                    (i, self._train_indices(aggregators[i]), starts[i])
                    for i in share
                ]
                training.send(
                    worker,
                    share,
                    (start_weights, self._hyper(self.local_epochs), clients),
                )
            # a share no worker could be forked for trains here
            for share in shares[1 + len(workers) :]:
                training.own = sorted(training.own + share)
        except BaseException:
            training.abandon()
            raise
        return training

    def _train_aggregators(
        self, aggregators: Sequence[int], start_weights: np.ndarray
    ) -> List[LocalTrainingResult]:
        """The whole train step in one call — start, collect — results
        in client order (:meth:`_start_training`)."""
        training = self._start_training(aggregators, start_weights)
        try:
            return training.collect()
        except BaseException:
            training.abandon()
            raise

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
        # A round without a deadline trains its planned clients, and the
        # dispatch draws nothing from the engine generator: the workers
        # train while the caller simulates the devices. With a deadline,
        # who trains depends on the dispatch times.
        global_w = server.global_weights() if train else None
        training: Optional[_Training] = None
        try:
            if global_w is not None and self.dropout is None:
                with PROFILER.phase("train"):
                    training = self._start_training(eligible, global_w)
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

            if global_w is not None:
                with PROFILER.phase("train"):
                    if training is None:
                        training = self._start_training(aggregators, global_w)
                    results = training.collect()
                with PROFILER.phase("aggregate"):
                    new_weights = self.strategy.aggregate(
                        [result.weights for result in results],
                        [result.n_samples for result in results],
                        global_weights=global_w,
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
        except BaseException:
            if training is not None:
                training.abandon()
            raise


def _shares(sizes: Sequence[int], procs: int) -> List[List[int]]:
    """The positions of ``sizes`` cut into at most ``procs`` shares,
    each in position order: largest first onto the lightest share
    (ties go to the earlier position and the earlier share). Positions
    with nothing to train stay in the first share, the caller's, so
    every other share holds work."""
    busy = sorted((i for i, n in enumerate(sizes) if n), key=lambda i: -sizes[i])
    count = max(1, min(procs, len(busy)))
    shares: List[List[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for i in busy:
        lightest = loads.index(min(loads))
        shares[lightest].append(i)
        loads[lightest] += sizes[i]
    shares[0].extend(i for i, n in enumerate(sizes) if not n)
    return [sorted(share) for share in shares]


def _train_rows(
    dataset: Dataset,
    scratch: Sequential,
    indices: np.ndarray,
    start_weights: np.ndarray,
    hyper: _Hyper,
    rng: np.random.Generator,
) -> LocalTrainingResult:
    """Local SGD on the training rows ``indices`` from ``start_weights``,
    on ``scratch``, through the module-global :func:`train_local` (looked
    up at call time), drawing batch orders from ``rng``: the one train
    step of the caller and of every worker."""
    x, y = dataset.subset(indices)
    scratch.set_weights(start_weights)
    epochs, batch_size, lr, momentum, weight_decay = hyper
    return train_local(
        scratch,
        x,
        y,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        momentum=momentum,
        weight_decay=weight_decay,
        rng=rng,
    )


def _workers(engine: RoundEngine, count: int) -> List[_Worker]:
    """Up to ``count`` training workers for ``engine``'s rounds, fewer
    only if a fork fails with ``OSError``. They are this process's, kept
    from round to round and forked when missing; workers forked for
    another engine's data or scratch model are closed and reaped first."""
    pid = os.getpid()
    pool = _pools.get(pid)
    if pool is not None and not pool.serves(engine):
        _close_workers()
        pool = None
    if pool is None:
        pool = _pools[pid] = _Pool(engine)
    while len(pool.workers) < count:
        try:
            pool.workers.append(_fork_worker(engine))
        except OSError:  # no process to spare: the caller trains it
            break
    return pool.workers[:count]


def _fork_worker(engine: RoundEngine) -> _Worker:
    """Fork a worker that serves :func:`_serve` on its copy of
    ``engine``'s data, scratch model and generator. It keeps none of the
    parent's pipes to other workers (each reads EOF once the parent
    closes its pipe) and none of the parent's stdout or stderr (a reader
    of those waits for their EOF), ignores SIGINT (the parent decides
    when it stops) and leaves by ``os._exit``, so no handler, buffer or
    ``finally`` of the parent's runs twice."""
    command_r, command_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (command_r, command_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(command_w)
            os.close(reply_r)
            for pool in _pools.values():
                for other in pool.workers:
                    os.close(other.commands.fileno())
                    os.close(other.replies.fileno())
            null = os.open(os.devnull, os.O_RDWR)
            os.dup2(null, 1)
            os.dup2(null, 2)
            os.close(null)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            _serve(
                engine.dataset, engine._scratch, engine._rng, command_r, reply_w
            )
            code = 0
        finally:
            os._exit(code)
    os.close(command_r)
    os.close(reply_w)
    return _Worker(pid, open(command_w, "wb"), open(reply_r, "rb"))


def _serve(
    dataset: Dataset,
    scratch: Sequential,
    rng: np.random.Generator,
    command_fd: int,
    reply_fd: int,
) -> None:
    """A worker's loop until its command pipe reads EOF: per message
    (:meth:`RoundEngine._start_training`), train each client by
    :func:`_train_rows` from the start weights, its rows and its
    generator start, and pickle ``(results, failure)`` back: the result
    of each client trained (weights, sample count and losses), and
    ``None`` or the failing client's position with the error's text."""
    with open(command_fd, "rb") as commands, open(reply_fd, "wb") as replies:
        while True:
            try:
                start_weights, hyper, clients = pickle.load(commands)
            except EOFError:
                return
            results: List[LocalTrainingResult] = []
            failure: Optional[Tuple[int, str]] = None
            for position, indices, state in clients:
                try:
                    rng.bit_generator.state = state
                    results.append(
                        _train_rows(
                            dataset, scratch, indices, start_weights, hyper, rng
                        )
                    )
                except Exception as err:
                    failure = (position, f"{type(err).__name__}: {err}")
                    break
            pickle.dump(
                (results, failure), replies, protocol=pickle.HIGHEST_PROTOCOL
            )
            replies.flush()


def _reap(worker: _Worker, kill: bool) -> int:
    """Close the parent's ends of a worker's pipes (which makes it
    leave), kill it first if ``kill``, and wait for it: its exit code."""
    for pipe in (worker.commands, worker.replies):
        try:
            pipe.close()
        except OSError:  # a command left unsent to a worker gone
            pass
    if kill:
        try:
            os.kill(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status = os.waitpid(worker.pid, 0)
    return os.waitstatus_to_exitcode(status)


def _close_workers(kill: bool = False) -> None:
    """Close and reap this process's training workers, killing them
    first if ``kill``; the next round that splits forks new ones. Runs
    at interpreter exit, and never touches a parent's workers."""
    pool = _pools.pop(os.getpid(), None)
    while pool is not None and pool.workers:
        _reap(pool.workers.pop(), kill)


atexit.register(_close_workers)


class _Training:
    """A round's train step under way (:meth:`RoundEngine._start_training`):
    the aggregators, the caller's share of their positions and the
    shares sent to workers whose results are still to be read."""

    def __init__(
        self,
        aggregators: Sequence[int],
        train: Callable[[int], LocalTrainingResult],
        own: List[int],
    ) -> None:
        self.aggregators = list(aggregators)
        self.train = train
        self.own = own
        self.pending: List[Tuple[_Worker, List[int]]] = []

    def send(self, worker: _Worker, share: List[int], message: Any) -> None:
        """Hand ``share`` to ``worker`` as one pickled ``message``."""
        self.pending.append((worker, share))
        try:
            pickle.dump(
                message, worker.commands, protocol=pickle.HIGHEST_PROTOCOL
            )
            worker.commands.flush()
        except OSError:
            raise self._lost(worker, share) from None

    def collect(self) -> List[LocalTrainingResult]:
        """Train the caller's share, then read each worker's results;
        every aggregator's result, in client order. A worker whose
        results say it failed, or that left none, makes this raise
        ``RuntimeError`` naming its client(s)."""
        results = {i: self.train(i) for i in self.own}
        while self.pending:
            worker, share = self.pending[0]
            results.update(zip(share, self._read(worker, share)))
            self.pending.pop(0)
        return [results[i] for i in range(len(self.aggregators))]

    def _read(
        self, worker: _Worker, share: List[int]
    ) -> List[LocalTrainingResult]:
        try:
            results, failure = pickle.load(worker.replies)
        except (EOFError, OSError, pickle.UnpicklingError):
            raise self._lost(worker, share) from None
        if failure is not None:
            position, error = failure
            raise RuntimeError(
                f"local training of client {self.aggregators[position]} "
                f"failed in a training worker: {error}"
            )
        out: List[LocalTrainingResult] = results
        return out

    def _lost(self, worker: _Worker, share: List[int]) -> RuntimeError:
        """The error for a worker gone without its results, once it is
        reaped for the exit status the error reports."""
        _pools[os.getpid()].workers.remove(worker)
        self.pending.remove((worker, share))
        code = _reap(worker, kill=False)
        clients = [self.aggregators[i] for i in share]
        return RuntimeError(
            f"the worker training clients {clients} exited with status "
            f"{code} without its results"
        )

    def abandon(self) -> None:
        """Kill and reap the workers if any still owes this step results:
        the round is failing, and what they send would be read by the
        next round."""
        if self.pending:
            self.pending.clear()
            _close_workers(kill=True)
