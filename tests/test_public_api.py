"""Contract tests over the exported (``__all__``) API surface.

Every assertion here pins a public name's shape — its fields, default
values, registry key or protocol role — so renaming or dropping an
export breaks a test before it breaks a downstream consumer. This file
is also the inbound-reference anchor the ``dead-public-api`` lint rule
checks exports against: an export nobody (including this file) touches
is flagged as dead.
"""

import dataclasses
from pathlib import Path

import numpy as np

from repro import __version__
from repro.core.cost import curves_from_profiles
from repro.core.schedule import RoundCost
from repro.device.registry import COLD_RATE_ANCHORS, DEVICE_NAMES
from repro.device.thermal import ThrottleDecision
from repro.engine.engine import ParameterServerLike, SchedulerBindingLike
from repro.engine.telemetry import TelemetryRead, read_jsonl_meta
from repro.experiments.table4 import PARAM_POINTS
from repro.models.flops import (
    BACKWARD_FACTOR,
    layer_forward_flops,
    model_forward_flops,
    model_training_flops,
)
from repro.models.layers import Dense
from repro.models.optim import SGD, Optimizer
from repro.models.zoo import (
    CIFAR_MINI_SHAPE,
    MNIST_MINI_SHAPE,
    build_model,
)
from repro.network.link import LINK_PRESETS, WIFI, make_link
from repro.obs.energy import ClientEnergy
from repro.obs.recorder import RoundSummary
from repro.profiling.profiler import DeviceProfile, TimeCurve
from repro.sched.adapters import (
    EqualScheduler,
    FedLBAPScheduler,
    FedMinAvgScheduler,
    ProportionalScheduler,
    RandomScheduler,
)
from repro.sched.base import Scheduler
from repro.sched.costs import (
    DEFAULT_ENERGY_SIZES,
    cached_energy_curves,
    clear_cost_cache,
)
from repro.sched.registry import scheduler_class


def test_version_is_pep440_ish():
    parts = __version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_round_cost_straggler_metrics():
    cost = RoundCost(
        per_user_s=np.array([1.0, 3.0]),
        makespan_s=3.0,
        mean_s=2.0,
        total_device_seconds=4.0,
    )
    assert cost.straggler_gap == 1.0


def test_curves_from_profiles_delegates_to_time_curve():
    class FakeProfile:
        def time_curve(self, model):
            return lambda n: 0.5 * n

    (curve,) = curves_from_profiles([FakeProfile()], model=None)
    assert curve(10.0) == 5.0


def test_cold_rate_anchors_cover_the_testbed():
    assert set(COLD_RATE_ANCHORS) <= set(DEVICE_NAMES)
    for lenet_rate, vgg6_rate in COLD_RATE_ANCHORS.values():
        assert 0 < lenet_rate
        assert 0 < vgg6_rate


def test_throttle_decision_defaults_are_no_ops():
    decision = ThrottleDecision()
    assert decision.freq_cap_factor == 1.0
    assert decision.online
    assert decision.rate_factor == 1.0


def test_engine_protocols_describe_the_driver_contract():
    # ParameterServerLike / SchedulerBindingLike are structural-typing
    # contracts (not runtime-checkable); pin their method surface
    assert "global_weights" in ParameterServerLike.__annotations__ or (
        hasattr(ParameterServerLike, "global_weights")
    )
    assert hasattr(SchedulerBindingLike, "plan_round")


def test_telemetry_read_shape(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("", encoding="utf-8")
    read = read_jsonl_meta(path)
    assert isinstance(read, TelemetryRead)


def test_table4_param_points_are_the_papers_four_columns():
    assert len(PARAM_POINTS) == 4
    for alpha, beta in PARAM_POINTS:
        assert alpha > 0
        assert beta >= 0


def test_flops_accounting_is_consistent():
    layer = Dense(4, 3)
    per_sample = layer_forward_flops(layer, (4,))
    assert per_sample > 0
    model = build_model("lenet_mini", input_shape=MNIST_MINI_SHAPE, seed=0)
    forward = model_forward_flops(model)
    assert model_training_flops(model) == forward * (
        1.0 + BACKWARD_FACTOR
    )


def test_mini_shapes_feed_the_model_zoo():
    assert MNIST_MINI_SHAPE == (1, 12, 12)
    assert CIFAR_MINI_SHAPE == (3, 12, 12)
    cifar = build_model("vgg_mini", input_shape=CIFAR_MINI_SHAPE, seed=0)
    assert cifar.layers


def test_optimizer_base_class_contract():
    assert issubclass(SGD, Optimizer)
    sgd = SGD([], lr=0.1)
    sgd.step()  # no parameters: a no-op, not an error


def test_wifi_preset_backs_make_link():
    assert LINK_PRESETS["wifi"] is WIFI
    link = make_link("wifi", jitter=0.0)
    assert link.uplink_mbps == WIFI["uplink_mbps"]


def test_client_energy_accumulator_defaults():
    e = ClientEnergy(client_id=3)
    assert (e.energy_j, e.busy_s, e.rounds, e.dropped) == (0, 0, 0, 0)
    assert e.last_soc is None


def test_round_summary_slots():
    assert "makespan_s" in RoundSummary.__slots__
    assert "energy_j" in RoundSummary.__slots__


def test_device_profile_is_the_two_step_fit():
    assert dataclasses.is_dataclass(DeviceProfile)
    names = {f.name for f in dataclasses.fields(DeviceProfile)}
    assert "device_name" in names
    # TimeCurve is the alias time_curve() returns: samples -> seconds
    curve: TimeCurve = lambda n_samples: 0.1 * n_samples
    assert curve(20.0) == 2.0


def test_registry_names_map_to_adapter_classes():
    expected = {
        "fed_lbap": FedLBAPScheduler,
        "fed_minavg": FedMinAvgScheduler,
        "equal": EqualScheduler,
        "random": RandomScheduler,
        "proportional": ProportionalScheduler,
    }
    for name, cls in expected.items():
        assert scheduler_class(name) is cls
        assert issubclass(cls, Scheduler)


def test_energy_curve_cache_clears():
    assert DEFAULT_ENERGY_SIZES == (500, 3000, 6000)
    model = build_model("lenet_mini", input_shape=MNIST_MINI_SHAPE, seed=0)
    sizes = (100, 200)
    (a,) = cached_energy_curves(("mate10",), model, sizes)
    clear_cost_cache()
    (b,) = cached_energy_curves(("mate10",), model, sizes)
    assert a is not b  # the cache really was dropped
    assert a(150.0) == b(150.0)  # ...but the fit is deterministic


def test_serve_exports_cover_the_control_plane():
    """The repro.serve surface: one import site pins every export."""
    from repro.serve import (
        DEVICE_STATES,
        ChurnEvent,
        DeviceRecord,
        DeviceRegistry,
        HeartbeatMonitor,
        ManualClock,
        ModelRegistry,
        ModelVersion,
        NowFn,
        PlanRecord,
        RoundJob,
        SchemaError,
        ServeApp,
        ServeConfig,
        SimClientDriver,
        TrainingCoordinator,
        churn_trace,
        now,
    )

    assert DEVICE_STATES == ("registered", "active", "stale", "dead")
    assert issubclass(SchemaError, ValueError)
    # the seam type is honoured by both clocks
    fn: NowFn = ManualClock(start_s=3.0)
    assert fn() == 3.0
    assert isinstance(now(), float)
    # dataclass shapes downstream consumers rely on
    assert {f.name for f in dataclasses.fields(RoundJob)} >= {
        "round_id", "status", "replans", "model_version",
    }
    assert {f.name for f in dataclasses.fields(PlanRecord)} == {
        "round_id", "attempt", "scheduled", "dead_scheduled",
    }
    assert {f.name for f in dataclasses.fields(ModelVersion)} == {
        "version", "parent", "created_s", "metadata",
    }
    assert {f.name for f in dataclasses.fields(ChurnEvent)} == {
        "at_s", "action", "device_id",
    }
    assert {f.name for f in dataclasses.fields(DeviceRecord)} >= {
        "device_id", "client_id", "state",
    }
    assert {f.name for f in dataclasses.fields(ServeConfig)} >= {
        "fleet_size", "scheduler", "stale_after_s", "dead_after_s",
    }
    # classes exist and are constructible shapes, not re-export typos
    for cls in (
        ServeApp,
        DeviceRegistry,
        HeartbeatMonitor,
        ModelRegistry,
        TrainingCoordinator,
        SimClientDriver,
    ):
        assert isinstance(cls, type)
    assert callable(churn_trace)


def test_engine_never_imports_the_fleet_package():
    """Layering: ``repro.fleet`` builds on ``repro.engine`` (its rounds
    narrate on the engine's event bus), never the reverse — not at
    module level and not lazily inside a function. A fleet population
    enters the engine as ``store.as_devices()`` / ``store.as_links()``.
    """
    import repro.engine
    from repro.analysis.project import build_project

    engine_dir = Path(repro.engine.__file__).parent
    repo_root = engine_dir.parents[2]  # <root>/src/repro/engine
    project, errors = build_project(
        repo_root, sorted(engine_dir.glob("*.py"))
    )
    assert errors == []
    # every import statement in every scope, relative ones resolved;
    # ``from .. import fleet`` records ("repro", "fleet")
    imported = {
        name
        for info in project.graph.modules.values()
        for target, symbol in info.import_records
        for name in (target, f"{target}.{symbol}")
    }
    assert "repro.engine.events" in imported
    assert [
        name
        for name in sorted(imported)
        if name == "repro.fleet" or name.startswith("repro.fleet.")
    ] == []


def _imports_by_module(package):
    """``{module: every dotted name it imports}`` over ``package``'s
    tree — all scopes, relative imports resolved; ``from ..core import
    fed_lbap`` yields ``repro.core`` and ``repro.core.fed_lbap``."""
    from repro.analysis.project import build_project

    package_dir = Path(package.__file__).parent
    repo_root = Path(__file__).parents[1]
    project, errors = build_project(
        repo_root, sorted(package_dir.rglob("*.py"))
    )
    assert errors == []
    return {
        info.name: {
            name
            for target, symbol in info.import_records
            for name in (target, f"{target}.{symbol}")
        }
        for info in project.graph.modules.values()
    }


def test_fleet_imports_no_clock():
    """``repro.fleet`` holds virtual state only: no module under it
    imports ``time``, in any scope, so a ``FleetRoundRecord`` carries
    nothing host-measured and the round path is timed from outside
    (``perfbench/``). The solver's host cost is read in
    ``repro.sched.binding.timed_schedule``, once."""
    import repro.fleet

    imports = _imports_by_module(repro.fleet)
    assert "numpy" in imports["repro.fleet.runner"]
    assert sorted(m for m, names in imports.items() if "time" in names) == []


def test_experiments_schedule_only_through_the_registry():
    """Layering: the paper's tables reach the scheduling algorithms by
    registry name over a ``testbed_problem``, never by importing them
    (or the cost-matrix assembler) from ``repro.core`` — whether from
    the defining module or through the package's re-exports."""
    import repro.experiments
    from repro.core import baselines, lbap, minavg

    algorithms = (baselines, lbap, minavg)
    modules = {m.__name__ for m in algorithms}
    symbols = {"build_cost_matrix"}.union(*(m.__all__ for m in algorithms))
    banned = (
        modules
        | {f"repro.core.{symbol}" for symbol in symbols}
        | {"repro.core.cost.build_cost_matrix"}
    )

    def is_algorithm(name):
        return name in banned or name.rsplit(".", 1)[0] in modules

    imports = _imports_by_module(repro.experiments)
    assert "repro.sched.get_scheduler" in imports["repro.experiments.fig5"]
    offenders = {
        module: sorted(filter(is_algorithm, names))
        for module, names in imports.items()
    }
    assert {m: hits for m, hits in offenders.items() if hits} == {}


def test_one_module_bootstraps_time_curves():
    """One predictor: outside ``repro.profiling``, which defines it,
    ``bootstrap_curve`` is imported by ``repro.sched.costs`` alone, so
    a fix to the profile grid lands once for every consumer."""
    import repro

    importers = sorted(
        module
        for module, names in _imports_by_module(repro).items()
        if not module.startswith("repro.profiling")
        and any(n.endswith(".bootstrap_curve") for n in names)
    )
    assert importers == ["repro.sched.costs"]
