"""The round engine: shared substrates plus the paper's synchronous round.

One :class:`RoundEngine` owns the simulation substrates — per-user
data, the device/thermal/battery simulators, the network links, the
scratch model, the shared RNG, the virtual clock and the
:class:`~repro.engine.events.EventBus` — and drives one loop over them:
:meth:`RoundEngine.run_sync_round`, synchronous FedAvg with an optional
straggler-dropout deadline (the paper's Sec. VII loop). As the paper's
phones do, the round's clients train at once: their local SGD is split
by samples between the caller and children forked for that round, with
the results of the one-by-one loop, bit for bit
(:meth:`RoundEngine._start_training`). A round without a deadline
knows who trains once it is planned, so it forks before the dispatch
and the children train while the caller simulates the devices; a
deadline round forks after the dispatch. The caller collects the
results where the round trains and reaps the children at the round's
end, after the evaluation, so their exits overlap its tail; none
outlives the round.

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

import copy
import os
import pickle
import signal
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    List,
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
#: ``_TRAIN_PROCS - 1`` children forked for that round's training only
_TRAIN_PROCS = usable_cores()

#: a round is split only if it takes at least this many FLOPs of local
#: SGD off the caller's path: the round's trained samples less its
#: largest share's, × ``local_epochs`` × :func:`model_training_flops`.
#: The time a split saves is that work less a fork, the copy-on-write
#: faults it brings both processes and the child's exit, which cost
#: about the same whatever the model; what a FLOP costs does not (IID
#: rounds, 2-core Xeon under KVM, BLAS on one thread, one child, median
#: train step forked / inline, two runs each). ``lenet_mini``, 10
#: clients, ~0.5 ms per MFLOP: 0.94 / 0.93 at 28 MFLOP moved, 0.95 /
#: 0.84 at 42, 0.77 / 0.75 at 56, 0.71 / 0.71 at 70 and 0.72 / 0.71 at
#: 91 (``engine-train``'s rounds). ``mlp``, 6 clients, ~0.2 ms per
#: MFLOP: 1.18 / 1.13 at 45, 1.18 / 1.00 at 59, 1.03 / 0.99 at 74, then
#: 0.93–0.96 at 89–104. From 7·10⁷ on, no model measured is slower.
_FORK_FLOPS = 7e7

#: a forked child training a share: its pid, the read end of its pipe
#: and the share's positions among the round's aggregators
_Child = Tuple[int, BinaryIO, List[int]]


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
        x, y = self.dataset.subset(self._train_indices(j))
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
            rng=rng,
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
        forked child gets no copy of it, and of any lock it holds only
        the locked copy), when a layer draws from a generator of its
        own, or when the work the split takes off the caller's path is
        too small to pay for the forks (``_FORK_FLOPS``)."""
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
        return shares if moved >= _FORK_FLOPS else _shares(sizes, 1)

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
        shares by samples (:meth:`_train_shares`) and a child is forked
        for this round for each share but the first, the caller's, which
        :meth:`_Training.collect` trains. With one share nothing trains
        until then.
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
        try:
            for share in shares[1:]:
                try:
                    training.children.append(_fork_share(share, train))
                except OSError:  # no process to spare: train it here
                    training.own = sorted(training.own + share)
        except BaseException:
            training.reap()
            raise
        return training

    def _train_aggregators(
        self, aggregators: Sequence[int], start_weights: np.ndarray
    ) -> List[LocalTrainingResult]:
        """The whole train step in one call — start, collect, reap —
        results in client order (:meth:`_start_training`)."""
        training = self._start_training(aggregators, start_weights)
        try:
            return training.collect()
        finally:
            training.reap()

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
        # dispatch draws nothing from the engine generator: the children
        # train while the caller simulates the devices. With a deadline,
        # who trains depends on the dispatch times. Either way the
        # children are reaped once the round's other work is done, so
        # their exits overlap it too.
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
        finally:
            if training is not None:
                training.reap()


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


def _fork_share(
    share: List[int], train: Callable[[int], LocalTrainingResult]
) -> _Child:
    """Fork a child that runs ``train`` over ``share`` and pickles
    ``(results, failure)`` to a pipe: the result of each position
    trained (weights, sample count and losses), and ``None`` or the
    failing position's index in the share with the error's text. The
    child leaves by ``os._exit``, so no handler, buffer or ``finally``
    of the caller's runs twice."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            results: List[LocalTrainingResult] = []
            failure: Optional[Tuple[int, str]] = None
            try:
                for i in share:
                    results.append(train(i))
            except Exception as err:
                failure = (len(results), f"{type(err).__name__}: {err}")
            with open(write_fd, "wb") as pipe:
                pickle.dump(
                    (results, failure), pipe, protocol=pickle.HIGHEST_PROTOCOL
                )
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb"), share


class _Training:
    """A round's train step under way (:meth:`RoundEngine._start_training`):
    the aggregators, the caller's share of their positions and the
    children forked for the other shares, until :meth:`reap` waits for
    them."""

    def __init__(
        self,
        aggregators: Sequence[int],
        train: Callable[[int], LocalTrainingResult],
        own: List[int],
    ) -> None:
        self.aggregators = list(aggregators)
        self.train = train
        self.own = own
        self.children: List[_Child] = []

    def collect(self) -> List[LocalTrainingResult]:
        """Train the caller's share, then read each child's results from
        its pipe; every aggregator's result, in client order. A child
        whose results say it failed, or that left none, makes this raise
        ``RuntimeError`` naming its client(s)."""
        results = {i: self.train(i) for i in self.own}
        for child in self.children:
            _, _, share = child
            results.update(zip(share, self._read(child)))
        return [results[i] for i in range(len(self.aggregators))]

    def _read(self, child: _Child) -> List[LocalTrainingResult]:
        """One child's results; a child that left none is reaped at once
        for the exit status its error reports."""
        pid, pipe, share = child
        payload = pipe.read()
        pipe.close()
        clients = [self.aggregators[i] for i in share]
        try:
            results, failure = pickle.loads(payload)
        except Exception:
            self.children.remove(child)
            _, status = os.waitpid(pid, 0)
            raise RuntimeError(
                f"the child training clients {clients} exited with status "
                f"{os.waitstatus_to_exitcode(status)} without its results"
            ) from None
        if failure is not None:
            position, error = failure
            raise RuntimeError(
                f"local training of client {clients[position]} failed in a "
                f"forked child: {error}"
            )
        out: List[LocalTrainingResult] = results
        return out

    def reap(self) -> None:
        """Wait for every child. One whose results were read has finished
        its work and only has to exit; any other is killed first, as the
        round is failing and nothing will read what it trains."""
        while self.children:
            pid, pipe, _ = self.children.pop()
            if not pipe.closed:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
