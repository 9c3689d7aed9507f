"""Seeded runs replay bit for bit, checked by running them.

Every module that emits an event or commits a model runs one small
seeded scenario that writes through ``JsonlSink``, in two fresh
interpreters: **A** with ``PYTHONHASHSEED=0``; **B** with
``PYTHONHASHSEED=1``, ``time.time``/``time.monotonic`` (and their ``_ns``
forms) skewed in offset and rate before ``repro`` is imported, and the
legacy global ``np.random`` state reseeded. The captures must be
byte-equal. ``perf_counter`` is left alone for the profiler; two
processes read it differently anyway.

The same two interpreters also run each producer under one mutant at a
time, applied in the probe process only (a wrapper or an unregistered
subclass, so no source file carries it); every mutant must make A and B
differ, or the check is blind to the pattern it copies.
"""

import itertools
import json

import pytest

from .test_live_invariants import run_probe

PROBE = r"""
import sys, time
if sys.argv[1] == "B":
    def skewed(read, offset, rate, scale=1):
        start = read()
        return lambda: offset * scale + start + (read() - start) * rate
    for name, offset, rate in (("time", 86_400.0, 1.25), ("monotonic", 3_600.0, 0.8)):
        real, real_ns = getattr(time, name), getattr(time, name + "_ns")
        setattr(time, name, skewed(real, offset, rate))
        setattr(time, name + "_ns", skewed(real_ns, offset, rate, scale=10**9))
import asyncio, io, json
from unittest import mock
import numpy as np
if sys.argv[1] == "B":
    np.random.seed(12_345)
import repro.engine.engine as engine_module
import repro.federated.decentralized as gossip_module
from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticConfig, make_dataset
from repro.device.registry import make_device
from repro.engine import EventBus, JsonlSink, RoundCompleted
from repro.federated import FederatedSimulation, SimulationConfig
from repro.federated.asynchronous import AsyncFederatedSimulation
from repro.federated.decentralized import DecentralizedSimulation, make_topology
from repro.fleet import FleetRunner, UniformSampler, synthetic_fleet
from repro.models import logistic
from repro.sched.bench import sweep
from repro.serve import ManualClock, ModelRegistry, ServeApp, ServeConfig

def captured(bus):
    out = io.StringIO()
    bus.subscribe(JsonlSink(out))
    return out

DATA = make_dataset(SyntheticConfig(name="probe", shape=(1, 8, 8), train_size=400,
                                    test_size=100, noise=1.0, seed=5))

def learners(n=4):
    users = iid_partition(DATA, n, np.random.default_rng(5))
    return logistic(input_shape=DATA.input_shape, seed=1), users

def phones():
    return [make_device(name, seed=i)
            for i, name in enumerate(("pixel2", "mate10", "nexus6p", "nexus6"))]

def fleet():
    bus = EventBus()
    out = captured(bus)
    runner = FleetRunner(synthetic_fleet(2_000, seed=7), scheduler="fed_lbap",
                         sampler=UniformSampler(7), cohort_size=32, bus=bus)
    for _ in range(3):
        runner.run_round()
    return out.getvalue()

def engine():
    sim = FederatedSimulation(DATA, *learners(), devices=phones(),
                              config=SimulationConfig(seed=3, lr=0.05))
    out = captured(sim.events)
    for _ in range(2):
        sim.run_round(train=True)
    return out.getvalue()

def asynchronous():
    sim = AsyncFederatedSimulation(DATA, *learners(), phones())
    out = captured(sim.events)
    sim.run(horizon_s=30.0)
    return out.getvalue()

def decentralized():
    model, users = learners()
    sim = DecentralizedSimulation(DATA, model, users, make_topology("ring", 4))
    out = captured(sim.events)
    sim.run(2)
    return out.getvalue()

def bench():
    bus = EventBus()
    out = captured(bus)
    sweep([1], [6_000], bus=bus)
    return out.getvalue()

def serve():
    bus, clock, rng = EventBus(), ManualClock(), np.random.default_rng(11)
    out = captured(bus)
    config = ServeConfig(fleet_size=48, scheduler="fed_lbap", shard_size=100,
                         stale_after_s=10.0, dead_after_s=30.0, seed=11)
    app = ServeApp(config, now_fn=clock, bus=bus)
    device_of = {}
    for i in range(40):
        status, body = app.handle_request("POST", "/v1/devices/register", {
            "device_id": f"dev-{i:03d}", "data_size": int(rng.integers(300, 900)),
            "battery_soc": float(rng.uniform(0.5, 1.0))})
        assert status == 201, body
        device_of[body["client_id"]] = f"dev-{i:03d}"
    def churn(phase, job):
        plan = app.coordinator.plan_log[-1]
        if phase == "planned" and plan.attempt == 0:
            for row in plan.scheduled[:2]:
                app.handle_request("DELETE", f"/v1/devices/{device_of.pop(row)}", None)
    app.coordinator.churn_hook = churn
    loop = asyncio.new_event_loop()
    for _ in range(3):
        app.handle_request("POST", "/v1/rounds", {})
        loop.run_until_complete(app.run_pending())
        clock.advance(16.0)
        for row in sorted(device_of)[::2]:
            app.handle_request("POST", f"/v1/devices/{device_of[row]}/heartbeat", None)
        app.registry.check()
    loop.close()
    return out.getvalue() + "".join(
        json.dumps(version.to_dict(), sort_keys=True) + "\n"
        for version in app.models.history())

PRODUCERS = [fleet, engine, asynchronous, decentralized, bench, serve]

# -- mutants: one nondeterminism pattern each, applied to one producer --

T0 = time.perf_counter()

def elapsed_s(t0):
    return time.perf_counter() - t0

def host_time_helper(**fields):
    return RoundCompleted(**{**fields, "time_s": elapsed_s(T0)})

class HostTimeClock(AsyncFederatedSimulation):
    def _start_epoch(self, j):
        self.engine.clock_s += time.monotonic() * 1e-9
        return super()._start_epoch(j)

class UnseededSampler(UniformSampler):
    def __init__(self, seed=0):
        super().__init__(seed)
        self._bits = np.random.PCG64()
        self._rng = np.random.Generator(self._bits)

class SetOrderSampler(UniformSampler):
    def sample(self, *args, **kwargs):
        rows = super().sample(*args, **kwargs)
        return np.array([int(row) for row in {str(row) for row in rows.tolist()}])

commit = ModelRegistry.commit

def unseeded_commit(self, **metadata):
    return commit(self, **metadata, jitter=float(np.random.default_rng().normal()))

def with_id(**fields):
    return RoundCompleted(**{**fields, "accuracy": id(fields) % 997 / 997})

MUTANTS = {
    "host-time-helper": (engine, mock.patch.object(engine_module, "RoundCompleted", host_time_helper)),
    "host-time-clock-s": (asynchronous, mock.patch.dict(globals(), AsyncFederatedSimulation=HostTimeClock)),
    "unseeded-attribute-emitted": (fleet, mock.patch.dict(globals(), UniformSampler=UnseededSampler)),
    "unseeded-commit": (serve, mock.patch.object(ModelRegistry, "commit", unseeded_commit)),
    "set-order": (fleet, mock.patch.dict(globals(), UniformSampler=SetOrderSampler)),
    "id": (decentralized, mock.patch.object(gossip_module, "RoundCompleted", with_id)),
}

captures = {producer.__name__: producer() for producer in PRODUCERS}
for name, (producer, mutant) in MUTANTS.items():
    with mutant:
        captures[f"mutant:{name}"] = producer()
print(json.dumps(captures))
"""

PRODUCERS = [
    "fleet",  # fleet/round.py through FleetRunner: 2 000 rows, cohort 32
    "engine",  # engine/engine.py: 4 phones, 2 trained sync rounds
    "asynchronous",  # federated/asynchronous.py: 30 virtual seconds
    "decentralized",  # federated/decentralized.py: a 4-ring, 2 rounds
    "bench",  # sched/bench.py: compare over testbed 1 with a bus
    "serve",  # serve/coordinator.py + registry.py + ModelRegistry.history()
]

MUTANTS = [
    "host-time-helper",  # perf_counter through a helper into time_s
    "host-time-clock-s",  # host time added into clock_s
    "unseeded-attribute-emitted",  # an unseeded PCG64 on self, draws emitted
    "unseeded-commit",  # an unseeded draw passed to .commit(...)
    "set-order",  # the cohort in set-of-str iteration order
    "id",  # id() folded into an event field
]


@pytest.fixture(scope="module")
def captures():
    """Capture per producer (and per mutant) from interpreters A and B."""
    return {
        side: json.loads(run_probe(PROBE, side, PYTHONHASHSEED=seed))
        for side, seed in (("A", "0"), ("B", "1"))
    }


def first_difference(a: str, b: str) -> str:
    pairs = itertools.zip_longest(a.splitlines(), b.splitlines())
    for line, (left, right) in enumerate(pairs, start=1):
        if left != right:
            return f"line {line}:\n  A: {left}\n  B: {right}"
    return ""


@pytest.mark.parametrize("producer", PRODUCERS)
def test_seeded_run_replays_byte_equal(captures, producer):
    a, b = captures["A"][producer], captures["B"][producer]
    assert a.count("\n") > 2, f"{producer} captured no events"
    assert a == b, f"{producer} differs at {first_difference(a, b)}"


@pytest.mark.parametrize("mutant", MUTANTS)
def test_determinism_check_catches(captures, mutant):
    key = f"mutant:{mutant}"
    assert captures["A"][key] != captures["B"][key]
