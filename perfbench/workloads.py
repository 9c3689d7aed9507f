"""The five workloads: closed loops with one caller.

Each workload is a frozen *spec* (its sizes, so a test can build a
small one directly) and a *live* object the harness drives: ``build``
once, then ``run_round`` per round — the next round is submitted when
the previous one completes; no sockets, no threads. Everything random
(fleet synthesis, cohort sampling, data partition, churn victims)
derives from the seed; the program only ever sees generated inputs.

A live workload built with a :class:`~perfbench.trace.Tracer` passes
span-recording stand-ins at the program's public seams and lists the
attribute rebindings the traced run needs in :meth:`Live.patches`;
built without one it touches nothing.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.engine.engine as engine_module
import repro.fleet.runner as runner_module
import repro.sched.binding as binding_module
import repro.serve.coordinator as coordinator_module
from repro.data import SyntheticConfig, iid_partition, make_dataset
from repro.device import make_device
from repro.engine import EventBus, JsonlSink
from repro.federated import FederatedSimulation, SimulationConfig
from repro.fleet import FleetRunner, FleetStore, UniformSampler, synthetic_fleet
from repro.models import MNIST_MINI_SHAPE, lenet_mini
from repro.models.losses import softmax_cross_entropy
from repro.obs import ObsRecorder, render_prometheus, render_trace_json
from repro.sched import EngineSchedulerBinding, Scheduler, get_scheduler
from repro.serve import ManualClock, ServeApp, ServeConfig

from .checks import (
    OpLedger,
    RecordingScheduler,
    assignment_faults,
    finite_positive,
)
from .trace import Patch, Tracer, TracingBus

__all__ = [
    "Live",
    "FleetSpec",
    "EngineSpec",
    "ServeSpec",
    "WORKLOADS",
]

#: every how-many-th traced round also runs the Fed-LBAP oracle checks
#: (they cost a proportional solve plus a vectorised threshold search)
_ORACLE_EVERY = 10

#: ``(makespan_s, energy_j, participants)`` of one round
RoundOutcome = Tuple[float, float, int]


class Live:
    """What the harness drives. Subclasses fill in the workload."""

    #: name of the root span of one round, ``<layer>.round``
    round_span = "round"
    #: name of the span around :meth:`between_rounds`; ``None`` when the
    #: workload has no inter-round work
    between_span: Optional[str] = None
    #: timed rounds between two yardstick readings: about 80 ms of
    #: rounds, so a ~13 ms reading costs under a fifth of the run and
    #: still tracks a host that moves within a second
    block_rounds = 1

    def __init__(self, seed: int, tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.tracer = tracer
        self.ledger = OpLedger()
        self._checked_rounds = 0

    # -- driving -----------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def run_round(self) -> None:
        raise NotImplementedError

    def between_rounds(self) -> int:
        """Inter-round control-plane work; returns requests made."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`build` opened."""

    # -- outputs -----------------------------------------------------------
    def outcomes(self) -> List[RoundOutcome]:
        """Per-round outcomes so far, warm-up round first."""
        raise NotImplementedError

    def final_accuracy(self) -> Optional[float]:
        return None

    def digest(self) -> str:
        """sha256 over the timed rounds' outcome sequence (float bits,
        not decimals), so a later change can state bit-identity."""
        h = hashlib.sha256()
        for makespan_s, energy_j, participants in self.outcomes()[1:]:
            h.update(
                f"{makespan_s.hex()} {energy_j.hex()} {participants}\n".encode()
            )
        return h.hexdigest()

    # -- checks (never inside a timed region) -------------------------------
    def check_round(self) -> None:
        """Check the round that just completed; counts one operation."""
        raise NotImplementedError

    def check_rounds_after_timing(self, rounds: int) -> None:
        """Untraced runs only: a few extra, untimed rounds with a
        recording scheduler, so assignments get the full checks without
        a wrapper ever sitting in a timed round."""

    def finish_checks(self) -> None:
        """End-of-run checks over accumulated state."""

    def _check_solved(self, recorder: RecordingScheduler) -> List[str]:
        oracle = self._checked_rounds % _ORACLE_EVERY == 0
        faults: List[str] = []
        for problem, assignment in recorder.drain():
            faults.extend(assignment_faults(problem, assignment, oracle))
        return faults

    # -- tracing -----------------------------------------------------------
    def patches(self) -> List[Patch]:
        return []

    def layer_extras(self) -> Dict[str, float]:
        """Values for per-layer metrics that are not span arithmetic;
        called once after the last traced round."""
        return {}

    def _recording(self, inner: Scheduler) -> RecordingScheduler:
        assert self.tracer is not None
        return RecordingScheduler(
            inner, self.tracer.wrap("sched.solve", inner.schedule)
        )


def _store_patches(tracer: Tracer, fleet: FleetStore) -> List[Patch]:
    """Span the columnar store's round-path methods on this instance."""

    def rows(t: Tracer, args: Any, kwargs: Any, result: Any) -> None:
        t.count("fleet.store.rows_written", float(len(args[0])))

    def cohort_rows(t: Tracer, args: Any, kwargs: Any, result: Any) -> None:
        rows(t, args, kwargs, result)
        t.count("fleet.store.cohort_rows", float(len(args[0])))

    return [
        (fleet, "run_compute",
         tracer.wrap("fleet.store.run_compute", fleet.run_compute,
                     cohort_rows)),
        (fleet, "comm_time_s",
         tracer.wrap("fleet.store.comm_time_s", fleet.comm_time_s)),
        (fleet, "soc", tracer.wrap("fleet.store.soc", fleet.soc)),
        (fleet, "idle", tracer.wrap("fleet.store.idle", fleet.idle, rows)),
    ]


def _problem_patch(tracer: Tracer, module: Any, attr: str) -> Patch:
    """Span a cost-matrix builder reached through ``module``'s global."""

    def cells(t: Tracer, args: Any, kwargs: Any, problem: Any) -> None:
        t.count("sched.costs.cells", float(problem.n_users * problem.n_slots))

    return (
        module,
        attr,
        tracer.wrap(f"sched.costs.{attr}", getattr(module, attr), cells),
    )


def _restrict_patch(tracer: Tracer, module: Any) -> Patch:
    return (
        module,
        "restrict_problem",
        tracer.wrap(
            "sched.binding.restrict_problem", module.restrict_problem
        ),
    )


def _recorder_extras(recorder: ObsRecorder) -> Dict[str, float]:
    """One Prometheus and one Chrome-trace export after the last round,
    and how many spans the recorder is holding by then."""
    t0 = time.perf_counter()
    render_prometheus(recorder.metrics)
    t1 = time.perf_counter()
    roots = recorder.finish_spans()
    render_trace_json(roots)
    t2 = time.perf_counter()
    return {
        "obs.export.prom_ms": (t1 - t0) * 1e3,
        "obs.export.trace_ms": (t2 - t1) * 1e3,
        "obs.recorder.spans_held": float(
            sum(1 for root in roots for _ in root.walk())
        ),
    }


# -- fleet workloads --------------------------------------------------------


@dataclass(frozen=True)
class FleetSpec:
    """``FleetRunner`` over a synthetic columnar fleet."""

    name: str
    n: int
    cohort: int
    scheduler: str
    rounds: int
    #: subscribe an ``ObsRecorder(trace=True)`` and an in-memory
    #: ``JsonlSink`` (cohort must not exceed ``detail_threshold``)
    narrate: bool = False
    shard_size: int = 500
    detail_threshold: int = 256
    block_rounds: int = 1

    def live(self, seed: int, tracer: Optional[Tracer] = None) -> "LiveFleet":
        return LiveFleet(self, seed, tracer)


class LiveFleet(Live):
    round_span = "fleet.runner.round"

    def __init__(
        self, spec: FleetSpec, seed: int, tracer: Optional[Tracer]
    ) -> None:
        super().__init__(seed, tracer)
        self.spec = spec
        self.block_rounds = spec.block_rounds
        self.recorder: Optional[ObsRecorder] = None
        self.sink: Optional[JsonlSink] = None
        self._solver: Optional[RecordingScheduler] = None

    def build(self) -> None:
        spec, tracer = self.spec, self.tracer
        self.fleet = synthetic_fleet(spec.n, seed=self.seed)
        scheduler: Scheduler = get_scheduler(spec.scheduler)
        self.sampler = UniformSampler(self.seed)
        bus = EventBus()
        if tracer is not None:
            self._solver = scheduler = self._recording(scheduler)
            bus = TracingBus(tracer)
        self.runner = FleetRunner(
            self.fleet,
            scheduler=scheduler,
            sampler=self.sampler,
            cohort_size=spec.cohort,
            shard_size=spec.shard_size,
            detail_threshold=spec.detail_threshold,
            bus=bus,
        )
        if spec.narrate:
            self.recorder = ObsRecorder(trace=True, run_name=spec.name)
            self._stream = io.StringIO()
            self.sink = JsonlSink(self._stream)
            bus.subscribe(self.recorder)
            bus.subscribe(self.sink)

    def run_round(self) -> None:
        self.runner.run_round()

    def outcomes(self) -> List[RoundOutcome]:
        return [
            (r.makespan_s, r.energy_j, r.active_count)
            for r in self.runner.records
        ]

    def check_round(self) -> None:
        record = self.runner.records[-1]
        faults: List[str] = []
        if record.cohort_size != self.spec.cohort:
            faults.append(
                f"round {record.round_idx}: cohort of {record.cohort_size}"
            )
        if not 0 < record.active_count <= record.cohort_size:
            faults.append(
                f"round {record.round_idx}: {record.active_count} active"
            )
        if not finite_positive(record.makespan_s) or not finite_positive(
            record.energy_j
        ):
            faults.append(f"round {record.round_idx}: non-finite outcome")
        if self._solver is not None:
            faults.extend(self._check_solved(self._solver))
        self._checked_rounds += 1
        self.ledger.record(faults)

    def check_rounds_after_timing(self, rounds: int) -> None:
        self._solver = RecordingScheduler(self.runner.scheduler)
        self.runner.scheduler = self._solver
        self._checked_rounds = 0  # the first check round runs the oracle
        for _ in range(rounds):
            self.runner.run_round()
            self.check_round()

    def finish_checks(self) -> None:
        """Narrated runs: the recorder's energy ledger must total what
        the runner recorded, and fold exactly the events emitted."""
        if self.recorder is None or self.sink is None:
            return
        faults: List[str] = []
        recorded_j = math.fsum(r.energy_j for r in self.runner.records)
        if not math.isclose(
            self.recorder.energy.total_energy_j, recorded_j, rel_tol=1e-9
        ):
            faults.append(
                f"ledger holds {self.recorder.energy.total_energy_j!r} J, "
                f"rounds recorded {recorded_j!r} J"
            )
        expected = sum(2 * r.active_count + 2 for r in self.runner.records)
        if not self.recorder.n_events == self.sink.n_events == expected:
            faults.append(
                f"{expected} events emitted, {self.recorder.n_events} "
                f"folded, {self.sink.n_events} sunk"
            )
        self.ledger.record(faults, ops=0)

    def patches(self) -> List[Patch]:
        tracer = self.tracer
        assert tracer is not None
        n = float(self.fleet.n)

        def scanned(t: Tracer, args: Any, kwargs: Any, result: Any) -> None:
            t.count("fleet.sampling.rows_scanned", float(len(args[0])))

        def masked(t: Tracer, args: Any, kwargs: Any, result: Any) -> None:
            t.count("fleet.sampling.rows_scanned", n)

        return [
            (self.sampler, "sample",
             tracer.wrap("fleet.sampling.sample", self.sampler.sample, scanned)),
            (self.runner, "eligible_indices",
             tracer.wrap("fleet.sampling.eligible_indices",
                         self.runner.eligible_indices, masked)),
            _problem_patch(tracer, runner_module, "fleet_problem"),
            *_store_patches(tracer, self.fleet),
        ]

    def layer_extras(self) -> Dict[str, float]:
        if self.recorder is None or self.sink is None:
            return {}
        extras = _recorder_extras(self.recorder)
        extras["engine.telemetry.bytes"] = float(len(self._stream.getvalue()))
        return extras


# -- the object-path engine, training for real ------------------------------


@dataclass(frozen=True)
class EngineSpec:
    """Object-path ``FederatedSimulation``: schedule → local SGD →
    FedAvg → accuracy, on the device simulator."""

    name: str
    rounds: int
    users: int = 10
    train_size: int = 3_000
    test_size: int = 200
    #: calibrated so ``final_accuracy`` lands in 0.80–0.95 at 100
    #: rounds — learnable, not saturated
    noise: float = 1.7
    #: the engine's default 0.05 leaves some seeds' models dead at
    #: chance for all 100 rounds; 0.02 trains on every seed tried
    lr: float = 0.02
    shard_size: int = 50
    scheduler: str = "fed_lbap"
    #: accuracy the final model must clear for the run to be correct
    #: (21 seeds landed in 0.845–0.950; a dead model reads 0.1)
    accuracy_floor: float = 0.7
    #: seeded per-device throughput jitter (the simulator's default), so
    #: that the virtual makespan and energy depend on the seed here as
    #: they do on every other workload
    jitter: float = 0.02
    devices: Tuple[str, ...] = (
        "pixel2", "mate10", "nexus6p", "pixel2", "nexus6",
    )

    def live(
        self, seed: int, tracer: Optional[Tracer] = None
    ) -> "LiveEngine":
        return LiveEngine(self, seed, tracer)


class LiveEngine(Live):
    round_span = "engine.engine.round"

    def __init__(
        self, spec: EngineSpec, seed: int, tracer: Optional[Tracer]
    ) -> None:
        super().__init__(seed, tracer)
        self.spec = spec
        self._solver: Optional[RecordingScheduler] = None

    def build(self) -> None:
        spec, seed, tracer = self.spec, self.seed, self.tracer
        self.dataset = make_dataset(
            SyntheticConfig(
                name="perfbench",
                shape=MNIST_MINI_SHAPE,
                train_size=spec.train_size,
                test_size=spec.test_size,
                noise=spec.noise,
                seed=seed,
            )
        )
        users = iid_partition(
            self.dataset, spec.users, np.random.default_rng(seed)
        )
        model = lenet_mini(input_shape=self.dataset.input_shape, seed=seed)
        self.devices = [
            make_device(
                spec.devices[j % len(spec.devices)],
                seed=seed * 1_000 + j,
                jitter=spec.jitter,
            )
            for j in range(spec.users)
        ]
        self.sim = FederatedSimulation(
            self.dataset,
            model,
            users,
            devices=self.devices,
            config=SimulationConfig(seed=seed, lr=spec.lr),
        )
        self._scheduler: Scheduler = get_scheduler(spec.scheduler)
        if tracer is not None:
            self._solver = self._scheduler = self._recording(self._scheduler)
            self.sim.engine.bus = TracingBus(tracer)
        # the binding's per-round chooser is its public way to change
        # scheduler mid-run; the check rounds after timing use it
        self.binding = EngineSchedulerBinding(
            lambda round_idx: self._scheduler, shard_size=spec.shard_size
        )
        self.sim.engine.bind_scheduler(self.binding)
        self.recorder = ObsRecorder(run_name=spec.name)
        self.sim.events.subscribe(self.recorder)

    def run_round(self) -> None:
        self.sim.run_round(train=True)

    def outcomes(self) -> List[RoundOutcome]:
        joules = self.recorder.energy.round_energy
        return [
            (r.makespan_s, joules[i][1], r.participant_count)
            for i, r in enumerate(self.sim.history.records)
        ]

    def final_accuracy(self) -> Optional[float]:
        return self.sim.history.final_accuracy

    def digest(self) -> str:
        """Outcomes plus the accuracy sequence: the learning trajectory
        is part of what must stay bit-identical."""
        h = hashlib.sha256(super().digest().encode())
        for acc in self.sim.history.accuracies()[1:]:
            h.update(f"{float(acc).hex()}\n".encode())
        return h.hexdigest()

    def check_round(self) -> None:
        record = self.sim.history.records[-1]
        assignment = self.binding.assignments[-1]
        budget = self.spec.train_size // self.spec.shard_size
        faults: List[str] = []
        counts = np.asarray(assignment.shard_counts)
        if int(counts.sum()) != budget or (counts < 0).any():
            faults.append(
                f"round {record.round_idx}: allocated {int(counts.sum())} "
                f"of {budget} shards"
            )
        if record.participant_count <= 0 or not finite_positive(
            record.makespan_s
        ):
            faults.append(f"round {record.round_idx}: empty or timeless")
        if record.accuracy is None or not 0.0 <= record.accuracy <= 1.0:
            faults.append(f"round {record.round_idx}: no accuracy")
        if self._solver is not None:
            faults.extend(self._check_solved(self._solver))
        self._checked_rounds += 1
        self.ledger.record(faults)

    def check_rounds_after_timing(self, rounds: int) -> None:
        self._solver = self._scheduler = RecordingScheduler(self._scheduler)
        self._checked_rounds = 0
        for _ in range(rounds):
            self.sim.run_round(train=True)
            self.check_round()

    def finish_checks(self) -> None:
        """Loss of the final model on the test split is finite, and its
        accuracy clears the floor."""
        faults: List[str] = []
        model = self.sim.server.model
        logits = model.forward(self.dataset.x_test, training=False)
        loss, _ = softmax_cross_entropy(logits, self.dataset.y_test)
        if not math.isfinite(loss):
            faults.append(f"final test loss is {loss!r}")
        accuracy = self.final_accuracy()
        if accuracy is None or accuracy < self.spec.accuracy_floor:
            faults.append(
                f"final accuracy {accuracy!r} below the floor "
                f"{self.spec.accuracy_floor}"
            )
        self.ledger.record(faults, ops=0)

    def patches(self) -> List[Patch]:
        tracer = self.tracer
        assert tracer is not None
        strategy = self.sim.engine.strategy

        def trained(t: Tracer, args: Any, kwargs: Any, result: Any) -> None:
            t.count(
                "engine.execution.train_samples",
                float(result.n_samples * kwargs.get("epochs", 1)),
            )

        out: List[Patch] = [
            (engine_module, "train_local",
             tracer.wrap("engine.execution.train_local",
                         engine_module.train_local, trained)),
            (engine_module, "evaluate_accuracy",
             tracer.wrap("engine.execution.evaluate_accuracy",
                         engine_module.evaluate_accuracy)),
            (strategy, "aggregate",
             tracer.wrap("engine.aggregation.aggregate", strategy.aggregate)),
            _problem_patch(tracer, binding_module, "problem_from_engine"),
            _restrict_patch(tracer, binding_module),
        ]
        for device in self.devices:
            out.append(
                (device, "run_workload",
                 tracer.wrap("device.run_workload", device.run_workload))
            )
        return out

    def layer_extras(self) -> Dict[str, float]:
        return _recorder_extras(self.recorder)


# -- the control plane under churn -------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    """In-process ``ServeApp`` on a ``ManualClock``: every round loses
    scheduled devices at both checkpoints, then the control plane
    heartbeats, sweeps and registers replacements."""

    name: str
    rounds: int
    #: devices registered and alive at every round start
    population: int = 512
    scheduler: str = "fed_lbap"
    shard_size: int = 200
    #: scheduled devices deregistered at the first ``planned``
    #: checkpoint — exactly one re-plan through ``restrict_problem``
    lost_planned: int = 16
    #: and at ``dispatched`` — k-of-n drops
    lost_dispatched: int = 8
    #: virtual seconds of control-plane traffic between rounds
    between_s: int = 10
    heartbeat_every_s: int = 5
    data_size_range: Tuple[int, int] = (300, 900)

    @property
    def lost_per_round(self) -> int:
        return self.lost_planned + self.lost_dispatched

    def live(self, seed: int, tracer: Optional[Tracer] = None) -> "LiveServe":
        return LiveServe(self, seed, tracer)

    def fleet_size(self, total_rounds: int) -> int:
        """The registry never reuses a row, so the store must hold the
        population plus every replacement registered over the run."""
        return self.population + self.lost_per_round * (total_rounds + 1)


class LiveServe(Live):
    round_span = "serve.coordinator.round"
    between_span = "serve.control.block"

    def __init__(
        self, spec: ServeSpec, seed: int, tracer: Optional[Tracer]
    ) -> None:
        super().__init__(seed, tracer)
        self.spec = spec
        self._solver: Optional[RecordingScheduler] = None
        self._unexpected = 0
        self._jobs: List[Any] = []

    def build(self) -> None:
        spec, tracer = self.spec, self.tracer
        self.clock = ManualClock()
        self.rng = np.random.default_rng(self.seed)
        self.loop = asyncio.new_event_loop()
        self.app = ServeApp(
            ServeConfig(
                fleet_size=spec.fleet_size(spec.rounds + 1),  # + warm-up
                scheduler=spec.scheduler,
                shard_size=spec.shard_size,
                seed=self.seed,
            ),
            now_fn=self.clock,
            bus=TracingBus(tracer) if tracer is not None else None,
        )
        self.app.coordinator.churn_hook = self._churn
        if tracer is not None:
            self._solver = self._recording(get_scheduler(spec.scheduler))
        #: live device ids in registration order, and their fleet rows
        self.ids: List[str] = []
        self.id_of_row: Dict[int, str] = {}
        self._next_device = 0
        for _ in range(spec.population):
            self._register()

    # -- the simulated devices ---------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[Dict[str, object]],
        expect: int,
    ) -> Any:
        status, payload = self.app.handle_request(method, path, body)
        if status == expect:
            self.ledger.record([])
        else:
            self._unexpected += 1
            self.ledger.record(
                [f"{method} {path} returned {status}, expected {expect}"]
            )
        return payload

    def _register(self) -> None:
        lo, hi = self.spec.data_size_range
        device_id = f"dev-{self._next_device:06d}"
        self._next_device += 1
        payload = self._request(
            "POST",
            "/v1/devices/register",
            {
                "device_id": device_id,
                "data_size": int(self.rng.integers(lo, hi + 1)),
                "battery_soc": float(self.rng.uniform(0.5, 1.0)),
            },
            expect=201,
        )
        self.ids.append(device_id)
        self.id_of_row[int(payload["client_id"])] = device_id

    def _churn(self, phase: str, job: Any) -> None:
        """Deregister scheduled devices at the round's checkpoints."""
        plan = self.app.coordinator.plan_log[-1]
        if phase == "planned" and plan.attempt == 0:
            lose = self.spec.lost_planned
        elif phase == "dispatched":
            lose = self.spec.lost_dispatched
        else:
            return
        rows = self.rng.choice(
            np.asarray(plan.scheduled), size=lose, replace=False
        )
        for row in rows.tolist():
            device_id = self.id_of_row.pop(row)
            self._request(
                "DELETE", f"/v1/devices/{device_id}", None, expect=200
            )
            self.ids.remove(device_id)

    async def _round(self) -> None:
        self._request("POST", "/v1/rounds", {}, expect=202)
        self._jobs.extend(await self.app.run_pending())

    def run_round(self) -> None:
        self.loop.run_until_complete(self._round())

    def between_rounds(self) -> int:
        spec = self.spec
        before = self.ledger.attempted
        for second in range(spec.between_s):
            self.clock.advance(1.0)
            self.app.registry.check()
            phase = second % spec.heartbeat_every_s
            for device_id in self.ids[phase :: spec.heartbeat_every_s]:
                self._request(
                    "POST", f"/v1/devices/{device_id}/heartbeat", None,
                    expect=200,
                )
        for _ in range(spec.lost_per_round):
            self._register()
        return self.ledger.attempted - before

    def close(self) -> None:
        self.loop.close()

    # -- outputs -----------------------------------------------------------
    def outcomes(self) -> List[RoundOutcome]:
        return [
            (
                float(job.record["makespan_s"]),
                float(job.record["energy_j"]),
                int(job.record["participant_count"]),
            )
            for job in self._jobs
            if job.record is not None
        ]

    def check_round(self) -> None:
        job = self._jobs[-1]
        spec = self.spec
        faults: List[str] = []
        if job.status != "completed" or job.record is None:
            faults.append(
                f"round {job.round_id} ended {job.status}: {job.error}"
            )
        else:
            if job.replans != 1:
                faults.append(
                    f"round {job.round_id}: {job.replans} re-plans, not 1"
                )
            if job.model_version != len(self._jobs):
                faults.append(
                    f"round {job.round_id} committed model "
                    f"{job.model_version}, expected {len(self._jobs)}"
                )
            if job.record["dropped_count"] != spec.lost_dispatched:
                faults.append(
                    f"round {job.round_id}: "
                    f"{job.record['dropped_count']} k-of-n drops"
                )
        plans = [
            p for p in self.app.coordinator.plan_log
            if p.round_id == job.round_id
        ]
        if len(plans) != 2 or any(p.dead_scheduled for p in plans):
            faults.append(
                f"round {job.round_id}: {len(plans)} plans, "
                f"{sum(p.dead_scheduled for p in plans)} dead scheduled"
            )
        if self._solver is not None:
            faults.extend(self._check_solved(self._solver))
        self._checked_rounds += 1
        self.ledger.record(faults)

    def finish_checks(self) -> None:
        """One model version per round; the population held steady."""
        faults: List[str] = []
        if self.app.models.latest().version != len(self._jobs):
            faults.append(
                f"{self.app.models.latest().version} model versions for "
                f"{len(self._jobs)} rounds"
            )
        if self.app.registry.live_count() != self.spec.population:
            faults.append(
                f"{self.app.registry.live_count()} devices live, "
                f"expected {self.spec.population}"
            )
        self.ledger.record(faults, ops=0)

    # -- tracing -----------------------------------------------------------
    def patches(self) -> List[Patch]:
        tracer = self.tracer
        assert tracer is not None
        app = self.app
        solver = self._solver

        def requested(t: Tracer, args: Any, kwargs: Any, result: Any) -> None:
            t.count("serve.app.requests")

        def swept(t: Tracer, args: Any, kwargs: Any, died: Any) -> None:
            t.count("serve.registry.sweeps")
            t.count("serve.registry.deaths", float(len(died)))

        def left(t: Tracer, args: Any, kwargs: Any, result: Any) -> None:
            t.count("serve.registry.deaths")

        return [
            (app, "handle_request",
             tracer.wrap("serve.app.handle_request",
                         app.handle_request, requested)),
            (app.registry, "check",
             tracer.wrap("serve.registry.check", app.registry.check, swept)),
            (app.registry, "deregister",
             tracer.wrap("serve.registry.deregister",
                         app.registry.deregister, left)),
            (app.models, "commit",
             tracer.wrap("serve.modelreg.commit", app.models.commit)),
            (coordinator_module, "get_scheduler", lambda name: solver),
            _problem_patch(tracer, coordinator_module, "fleet_problem"),
            _restrict_patch(tracer, coordinator_module),
            *_store_patches(tracer, app.fleet),
        ]

    def layer_extras(self) -> Dict[str, float]:
        timed = self._jobs[1:]
        timed_ids = {job.round_id for job in timed}
        solves = sum(
            1 for plan in self.app.coordinator.plan_log
            if plan.round_id in timed_ids
        )
        replans = sum(job.replans for job in timed)
        extras = _recorder_extras(self.app.recorder)
        extras.update(
            {
                "serve.app.unexpected_status": float(self._unexpected),
                "serve.coordinator.replans": replans / len(timed),
                "serve.coordinator.replan_ratio": replans / solves,
                "serve.coordinator.dropped_clients": sum(
                    int(job.record["dropped_count"]) for job in timed
                ) / len(timed),
            }
        )
        return extras


#: the benchmark's workloads at their measured sizes: ``rounds`` is what
#: a 10-second run times on the reference box (README "Sizing")
WORKLOADS: Dict[str, Any] = {
    spec.name: spec
    for spec in (
        FleetSpec("fleet-lbap", n=100_000, cohort=512,
                  scheduler="fed_lbap", rounds=150, block_rounds=2),
        FleetSpec("fleet-narrate", n=10_000, cohort=256,
                  scheduler="proportional", rounds=400, narrate=True,
                  block_rounds=5),
        FleetSpec("fleet-1m", n=1_000_000, cohort=512,
                  scheduler="proportional", rounds=100),
        EngineSpec("engine-train", rounds=100),
        ServeSpec("serve-churn", rounds=100),
    )
}
