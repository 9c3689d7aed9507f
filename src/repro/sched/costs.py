"""Cost-model builders for scheduling problems.

Turns calibrated phones into the cost rows a
:class:`~repro.sched.base.SchedulingProblem` carries, each curve a
:class:`~repro.profiling.profiler.Curve` and every row built by
:func:`~repro.profiling.profiler.curve_rows`:

* **time** — ``T_j(n_samples)`` least-squares fitted through the
  cold-start runs of the device simulator
  (:func:`~repro.profiling.profiler.fit_time_curve`, the paper's online
  profiling path);
* **energy** — affine ``E_j(n_samples)`` Joules least-squares fitted
  through the cold-start runs at a few anchor sizes (training energy
  is affine in data size to very good approximation, like time).

Both fits are functions of one profile, a table of cells: one
cold-start run of a jitter-free phone per (phone, training FLOPs per
sample, size, batch), whose trace carries both its seconds and its
Joules. A phone's cells are read off one cold-start pass per (phone,
FLOPs, batch) over the time and energy grids together (a smaller
size's run is a prefix of the largest's), so no size below the largest
costs a control step. Curves are cached per fit and phone on the same
key with the whole grid in place of one size.

Both builders emit the class form: a testbed (:func:`testbed_problem`)
has one row per distinct phone name, a fleet cohort
(:func:`fleet_problem`) one per device class
(:func:`fleet_class_matrices`) — a users x shards matrix is never
built.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.baselines import mean_cpu_freq_per_core
from ..device.device import MobileDevice, TrainingTrace
from ..device.registry import build_spec
from ..device.workload import TrainingWorkload
from ..models.flops import model_training_flops
from ..models.network import Sequential
from ..models.zoo import (
    CIFAR_SHAPE,
    MNIST_SHAPE,
    build_model,
    zoo_training_flops,
)
from ..obs.prof import PROFILER
from ..profiling.profiler import Curve, _check_grid, curve_rows, fit_time_curve
from ..profiling.trace import _whole_sizes
from .base import SchedulingProblem

if TYPE_CHECKING:
    from ..fleet.store import FleetStore

__all__ = [
    "DEFAULT_ENERGY_SIZES",
    "DATASET_TOTALS",
    "DATASET_SHAPES",
    "cached_time_curves",
    "cached_energy_curves",
    "testbed_problem",
    "fleet_class_matrices",
    "fleet_problem",
    "clear_cost_cache",
]

#: data sizes (samples) measured when bootstrapping a time curve
DEFAULT_PROFILE_SIZES: Tuple[int, ...] = (500, 1500, 3000, 6000, 12000)

#: anchor sizes for the affine energy fit (energy scales linearly, so a
#: short grid identifies it; fewer points than time keeps sweeps fast)
DEFAULT_ENERGY_SIZES: Tuple[int, ...] = (500, 3000, 6000)

#: training-set sizes of the paper's datasets
DATASET_TOTALS: Dict[str, int] = {"mnist": 60_000, "cifar10": 50_000}

#: and their input shapes
DATASET_SHAPES: Dict[str, Tuple[int, int, int]] = {
    "mnist": MNIST_SHAPE,
    "cifar10": CIFAR_SHAPE,
}

_CurveKey = Tuple[object, ...]

#: the profile's cells: one cold-start run per (phone, training FLOPs
#: per sample, size, batch). The model's name only labels the trace, so
#: the FLOPs, not the name, tell two models apart
_CELLS: Dict[Tuple[str, float, int, int], TrainingTrace] = {}

#: fitted curves, keyed on (fit, phone, FLOPs, sizes, batch)
_CURVES: Dict[_CurveKey, Curve] = {}

#: per-class cost rows, keyed on (fleet class signature, shard size):
#: ``(time, energy, widest)`` — the pair last handed out and the
#: widest time-over-energy rows built for the key. Device state never
#: enters; the width does (the default budget is "the data this cohort
#: holds"), and column ``k`` does not depend on it, so every width up
#: to the widest is served as a prefix view of it and only a new
#: widest width runs the broadcast (~130 µs at 8 x 1 100 cells)
_FLEET_MATRIX_CACHE: Dict[
    _CurveKey, Tuple[np.ndarray, np.ndarray, np.ndarray]
] = {}


def clear_cost_cache() -> None:
    """Drop all profiled cells, cached curves and class matrices (test
    isolation)."""
    _CELLS.clear()
    _CURVES.clear()
    _FLEET_MATRIX_CACHE.clear()


def _profiled(
    fit: Callable[[Tuple[int, ...], List[TrainingTrace]], Curve],
    device_names: Sequence[str],
    model: Union[str, Sequential],
    data_sizes: Sequence[int],
    batch_size: int,
) -> List[Curve]:
    """``fit`` once per phone over its cells at ``data_sizes``, cached
    on the fit, the phone, the model's training FLOPs per sample, the
    sizes and the batch. A model given by its zoo name is counted on
    MNIST's shape from its layer shapes, with no weights built. A
    phone's missing cells at these sizes and at both default grids are
    filled from one cold-start pass of a jitter-free phone
    (:meth:`~repro.device.device.MobileDevice.cold_runs`), so the time
    and the energy fit share it. Raises ``ValueError`` naming any size
    that is not a whole number of samples >= 1."""
    sizes = _whole_sizes(data_sizes)
    if isinstance(model, Sequential):
        flops, model_name = model_training_flops(model), model.name
    else:
        flops, model_name = zoo_training_flops(model, MNIST_SHAPE), model
    workload = TrainingWorkload(
        flops_per_sample=flops,
        n_samples=0,
        batch_size=batch_size,
        model_name=model_name,
    )
    grid = (*sizes, *DEFAULT_PROFILE_SIZES, *DEFAULT_ENERGY_SIZES)
    for name in device_names:
        if (fit, name, flops, sizes, batch_size) in _CURVES:
            continue
        missing = sorted({n for n in grid if (name, flops, n, batch_size) not in _CELLS})
        if missing:
            phone = MobileDevice(build_spec(name), jitter=0.0)
            with PROFILER.phase("profile"):
                traces = phone.cold_runs(workload, missing)
            for n, trace in zip(missing, traces):
                _CELLS[name, flops, n, batch_size] = trace
        _CURVES[fit, name, flops, sizes, batch_size] = fit(
            sizes, [_CELLS[name, flops, n, batch_size] for n in sizes]
        )
    return [_CURVES[fit, name, flops, sizes, batch_size] for name in device_names]


def _time_curve(sizes: Tuple[int, ...], cells: List[TrainingTrace]) -> Curve:
    """Least-squares seconds through the cells (:func:`fit_time_curve`)."""
    return fit_time_curve(sizes, [c.total_time_s for c in cells])


def _energy_curve(sizes: Tuple[int, ...], cells: List[TrainingTrace]) -> Curve:
    """Affine least-squares Joules through the cells, slope and
    intercept clamped at zero."""
    _check_grid(sizes, 2)
    slope, intercept = np.polyfit(
        np.array([float(d) for d in sizes]), np.array([c.energy_j for c in cells]), 1
    )
    return Curve(max(float(intercept), 0.0), max(float(slope), 0.0), floor=0.0)


def cached_time_curves(
    device_names: Sequence[str],
    model: Union[str, Sequential],
    data_sizes: Sequence[int] = DEFAULT_PROFILE_SIZES,
    batch_size: int = 20,
) -> List[Curve]:
    """Bootstrap (or fetch cached) ``T_j(n_samples)`` curves.

    Profiling runs jitter-free cold starts, one per cell, so the curve
    is deterministic per phone model. ``model`` is a network, or a zoo
    model's name on MNIST's shape. This is the only profile cache:
    the engine binding, the fleet classes and the paper's tables
    (:mod:`repro.experiments`) all read their curves here.
    """
    return _profiled(_time_curve, device_names, model, data_sizes, batch_size)


def cached_energy_curves(
    device_names: Sequence[str],
    model: Union[str, Sequential],
    data_sizes: Sequence[int] = DEFAULT_ENERGY_SIZES,
    batch_size: int = 20,
) -> List[Curve]:
    """Affine ``E_j(n_samples)`` Joule curves fitted through the same
    profile cells as the time curves."""
    return _profiled(_energy_curve, device_names, model, data_sizes, batch_size)


def testbed_problem(
    testbed: Union[int, Sequence[str]],
    dataset: str = "mnist",
    model: Union[str, Sequential] = "lenet",
    shard_size: int = 500,
    total_samples: Optional[int] = None,
    user_classes: Optional[Sequence[Tuple[int, ...]]] = None,
    alpha: float = 100.0,
    beta: float = 0.0,
    capacities: Optional[Sequence[int]] = None,
    with_energy: bool = True,
    makespan_cap_s: Optional[float] = None,
    seed: Union[np.random.Generator, int] = 0,
    batch_size: int = 20,
) -> SchedulingProblem:
    """Build a full scheduling instance for a list of the paper's phones.

    The one road from device names to a schedule: the paper's tables
    (:mod:`repro.experiments`), ``repro sched compare`` and the engine
    binding (:func:`repro.sched.binding.problem_from_engine`) all build
    here. ``testbed`` is a testbed id (1/2/3) or an explicit
    device-name list. The instance is in class form, one Property-1
    time row (Fed-LBAP / Fed-MinAvg / OLAR) and one energy row
    (MinEnergy, unless ``with_energy=False``) per distinct phone name,
    plus the paper's Proportional weights (mean CPU frequency per
    core) and an RNG for the Random baseline — ``seed``
    is an integer, or the caller's own ``Generator`` when its draws
    must interleave with the caller's.
    """
    if isinstance(testbed, int):
        from ..device.registry import TESTBEDS

        if testbed not in TESTBEDS:
            raise KeyError(f"testbed must be one of {sorted(TESTBEDS)}")
        names: Sequence[str] = TESTBEDS[testbed]
    else:
        names = tuple(testbed)
        if not names:
            raise ValueError("need at least one device name")
    if dataset not in DATASET_TOTALS:
        raise KeyError(
            f"unknown dataset {dataset!r}; one of {sorted(DATASET_TOTALS)}"
        )
    net = (
        model
        if isinstance(model, Sequential)
        else build_model(model, input_shape=DATASET_SHAPES[dataset])
    )
    total = total_samples if total_samples is not None else DATASET_TOTALS[dataset]
    if total <= 0:
        raise ValueError("total_samples must be positive")
    shards = total // shard_size
    if shards <= 0:
        raise ValueError(
            f"total of {total} samples yields no {shard_size}-sample shards"
        )
    # one row per distinct phone, in order of first appearance
    phones = list(dict.fromkeys(names))
    row_of = np.array([phones.index(n) for n in names], dtype=np.int64)
    time_rows = curve_rows(
        cached_time_curves(phones, net, batch_size=batch_size),
        shards,
        shard_size,
    )
    energy_rows = None
    if with_energy:
        energy_rows = curve_rows(
            cached_energy_curves(phones, net, batch_size=batch_size),
            shards,
            shard_size,
        )
    weights = np.array(
        [mean_cpu_freq_per_core(build_spec(n)) for n in names]
    )
    return SchedulingProblem(
        time_rows=time_rows,
        energy_rows=energy_rows,
        row_of=row_of,
        total_shards=shards,
        shard_size=shard_size,
        capacities=(
            np.asarray(capacities, dtype=np.int64)
            if capacities is not None
            else None
        ),
        user_classes=user_classes,
        alpha=alpha,
        beta=beta,
        weights=weights,
        makespan_cap_s=makespan_cap_s,
        rng=seed,
        meta={
            "devices": tuple(names),
            "dataset": dataset,
            "model": net.name,
        },
    )


def fleet_class_matrices(
    fleet: "FleetStore", n_shards: int, shard_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-class cost rows for a columnar fleet.

    Returns ``(time, energy)`` matrices of shape ``(n_classes,
    n_shards)`` — column ``k`` is the cost of ``k+1`` shards — built by
    :func:`~repro.profiling.profiler.curve_rows` from each class's
    affine time and energy :class:`~repro.profiling.profiler.Curve`
    (floored at zero, which its non-negative coefficients never reach).
    These are the rows a :func:`fleet_problem` carries; a cohort
    member's row is ``rows[class_id]``. One entry is cached per fleet
    class signature and shard size: the same width returns the very
    same arrays, a narrower one prefix views of the widest rows built
    (column ``k`` does not depend on the width, so the prefix equals a
    fresh narrower build) and a wider one rebuilds.
    """
    if n_shards <= 0 or shard_size <= 0:
        raise ValueError("n_shards and shard_size must be positive")
    key: _CurveKey = (fleet.signature(), int(shard_size))
    cached = _FLEET_MATRIX_CACHE.get(key)
    if cached is not None and cached[0].shape[1] == n_shards:
        return cached[0], cached[1]
    if cached is not None and cached[2].shape[1] >= n_shards:
        rows = cached[2]
    else:
        # time rows above energy rows, in one broadcast
        rows = curve_rows(
            [Curve(c.time_base_s, c.time_per_sample_s, floor=0.0) for c in fleet.classes]
            + [Curve(c.energy_base_j, c.energy_per_sample_j, floor=0.0) for c in fleet.classes],
            n_shards,
            shard_size,
        )
        # shared by every problem built at this width or narrower
        rows.flags.writeable = False
    n_classes = len(fleet.classes)
    _FLEET_MATRIX_CACHE[key] = (
        rows[:n_classes, :n_shards], rows[n_classes:, :n_shards], rows
    )
    return _FLEET_MATRIX_CACHE[key][:2]


def _total(sizes: np.ndarray) -> int:
    """The exact sum of non-negative int64 ``sizes``: NumPy's int64 sum
    when it cannot wrap, Python ints when it might."""
    if sizes.size and int(sizes.max()) > (2**63 - 1) // sizes.size:
        return sum(sizes.tolist())
    return int(sizes.sum())


def fleet_problem(
    fleet: "FleetStore",
    cohort: Optional[np.ndarray] = None,
    shard_size: int = 500,
    total_shards: Optional[int] = None,
    with_energy: bool = True,
    alpha: float = 100.0,
    beta: float = 0.0,
    makespan_cap_s: Optional[float] = None,
    seed: int = 0,
) -> SchedulingProblem:
    """Build a scheduling instance over a fleet cohort.

    ``cohort`` is an index array into the fleet (the whole fleet when
    omitted). The shard budget defaults to the data the cohort holds.
    The instance is in class form: its rows are the per-class rows of
    :func:`fleet_class_matrices` and its index is the cohort's
    ``class_id``, so nothing of size cohort x shards is gathered,
    copied or validated here — ``meta["build_ms"]`` records the
    measured host cost. Proportional weights fall out of the class
    slopes (samples/second).
    """
    idx = (
        np.arange(fleet.n, dtype=np.int64)
        if cohort is None
        else np.asarray(cohort, dtype=np.int64)
    )
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("cohort must be a non-empty 1-D index array")
    if total_shards is None:
        total_shards = max(1, _total(fleet.data_size[idx]) // shard_size)
    if total_shards <= 0:
        raise ValueError("total_shards must be positive")
    # perf_counter (monotonic): matrix-build cost is host cost, like
    # the solver runtime the binding records
    t0 = time.perf_counter()
    with PROFILER.phase("build"):
        time_rows, energy_rows = fleet_class_matrices(
            fleet, total_shards, shard_size
        )
        cid = fleet.class_id[idx]
    build_ms = (time.perf_counter() - t0) * 1e3
    weights = 1.0 / np.maximum(fleet.time_per_sample_s[cid], 1e-12)
    return SchedulingProblem(
        time_rows=time_rows,
        energy_rows=energy_rows if with_energy else None,
        row_of=cid,
        total_shards=int(total_shards),
        shard_size=shard_size,
        alpha=alpha,
        beta=beta,
        weights=weights,
        makespan_cap_s=makespan_cap_s,
        rng=seed,
        meta={
            "fleet_n": fleet.n,
            "cohort_size": int(idx.size),
            "build_ms": build_ms,
            "classes": tuple(c.name for c in fleet.classes),
        },
    )
