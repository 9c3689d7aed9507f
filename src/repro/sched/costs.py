"""Cost-model builders for scheduling problems.

Turns calibrated device fleets into the matrices a
:class:`~repro.sched.base.SchedulingProblem` carries:

* **time** — per-user ``T_j(n_samples)`` curves bootstrapped from the
  device simulator (the paper's online profiling path), folded into the
  Fed-LBAP matrix by :func:`repro.core.cost.build_cost_matrix`;
* **energy** — per-user ``E_j(n_samples)`` Joule curves fitted from a
  few simulated anchor runs (:func:`repro.device.energy
  .energy_for_samples` measures cold-state energy; training energy is
  affine in data size to very good approximation, like time).

Curves are cached per ``(device model, NN model, …)`` key — device
instances of the same phone are interchangeable for profiling — so
sweeps over testbeds and data sizes stay cheap.

A testbed (:func:`testbed_problem`) is a dense matrix, one row per
phone. A columnar fleet (:func:`fleet_problem`) is the problem's class
form: the per-class rows of :func:`fleet_class_matrices` plus the
cohort's ``class_id`` as the row index — a cohort x shards matrix is
never built.
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
from ..core.cost import build_cost_matrix
from ..device.energy import energy_for_samples
from ..device.registry import build_spec, make_device
from ..models.network import Sequential
from ..models.zoo import CIFAR_SHAPE, MNIST_SHAPE, build_model
from ..obs.prof import PROFILER
from ..profiling.profiler import bootstrap_curve
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

_TIME_CACHE: Dict[_CurveKey, Callable[[float], float]] = {}
_ENERGY_CACHE: Dict[_CurveKey, Callable[[float], float]] = {}

#: per-class cost rows, keyed on (fleet class signature, shard size):
#: the latest (n_classes, s) pair per key. Device state never enters;
#: the width does — the default budget is "the data this cohort
#: holds" — so a different width replaces the entry (the broadcast is
#: microseconds) rather than piling up beside it
_FLEET_MATRIX_CACHE: Dict[
    _CurveKey, Tuple[np.ndarray, np.ndarray]
] = {}


def clear_cost_cache() -> None:
    """Drop all cached curves and class matrices (test isolation)."""
    _TIME_CACHE.clear()
    _ENERGY_CACHE.clear()
    _FLEET_MATRIX_CACHE.clear()


def cached_time_curves(
    device_names: Sequence[str],
    model: Sequential,
    data_sizes: Sequence[int] = DEFAULT_PROFILE_SIZES,
    batch_size: int = 20,
) -> List[Callable[[float], float]]:
    """Bootstrap (or fetch cached) ``T_j(n_samples)`` curves.

    Profiling runs on fresh, jitter-free device instances so the curve
    is deterministic per phone model. This is the only profile cache:
    the engine binding, the fleet classes and the paper's tables
    (:mod:`repro.experiments`) all read their curves here.
    """
    curves: List[Callable[[float], float]] = []
    for name in device_names:
        key = (
            name,
            model.name,
            model.input_shape,
            tuple(int(d) for d in data_sizes),
            batch_size,
        )
        if key not in _TIME_CACHE:
            device = make_device(name, jitter=0.0)
            _TIME_CACHE[key] = bootstrap_curve(
                device, model, data_sizes, batch_size=batch_size
            )
        curves.append(_TIME_CACHE[key])
    return curves


def cached_energy_curves(
    device_names: Sequence[str],
    model: Sequential,
    data_sizes: Sequence[int] = DEFAULT_ENERGY_SIZES,
    batch_size: int = 20,
) -> List[Callable[[float], float]]:
    """Affine ``E_j(n_samples)`` Joule curves from simulated anchors."""
    curves: List[Callable[[float], float]] = []
    for name in device_names:
        key = (
            name,
            model.name,
            model.input_shape,
            tuple(int(d) for d in data_sizes),
            batch_size,
        )
        if key not in _ENERGY_CACHE:
            device = make_device(name, jitter=0.0)
            x = np.array([float(d) for d in data_sizes])
            y = np.array(
                [
                    energy_for_samples(
                        device, model, int(d), batch_size=batch_size
                    )
                    for d in data_sizes
                ]
            )
            slope, intercept = np.polyfit(x, y, 1)
            slope = max(float(slope), 0.0)
            intercept = max(float(intercept), 0.0)

            def curve(
                n_samples: float, a: float = intercept, b: float = slope
            ) -> float:
                if n_samples <= 0:
                    return 0.0
                return a + b * n_samples

            _ENERGY_CACHE[key] = curve
        curves.append(_ENERGY_CACHE[key])
    return curves


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
    device-name list. The instance carries everything any registered
    scheduler needs: the Property-1 time matrix (Fed-LBAP / Fed-MinAvg
    / OLAR), an energy matrix (MinEnergy) unless
    ``with_energy=False``, the paper's Proportional weights (mean CPU
    frequency per core), and an RNG for the Random baseline — ``seed``
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
    time_curves = cached_time_curves(names, net, batch_size=batch_size)
    time_cost = build_cost_matrix(time_curves, shards, shard_size)
    energy_cost = None
    if with_energy:
        energy_cost = build_cost_matrix(
            cached_energy_curves(names, net, batch_size=batch_size),
            shards,
            shard_size,
        )
    weights = np.array(
        [mean_cpu_freq_per_core(build_spec(n)) for n in names]
    )
    return SchedulingProblem(
        time_cost=time_cost,
        total_shards=shards,
        shard_size=shard_size,
        energy_cost=energy_cost,
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
    n_shards)`` — column ``k`` is the cost of ``k+1`` shards — built in
    one broadcast from the classes' affine coefficients and made
    non-decreasing (Property 1). These are the rows a
    :func:`fleet_problem` carries; a cohort member's row is
    ``rows[class_id]``. One entry is cached per fleet class signature
    and shard size: the same width returns the very same arrays, a
    different width rebuilds and replaces them (column ``k`` does not
    depend on the width, so a prefix of a wider pair equals a fresh
    narrower one).
    """
    if n_shards <= 0 or shard_size <= 0:
        raise ValueError("n_shards and shard_size must be positive")
    key: _CurveKey = (fleet.signature(), int(shard_size))
    cached = _FLEET_MATRIX_CACHE.get(key)
    if cached is not None and cached[0].shape[1] == n_shards:
        return cached
    samples = np.arange(1, n_shards + 1, dtype=np.float64) * float(
        shard_size
    )
    time_base = np.array(
        [c.time_base_s for c in fleet.classes], dtype=np.float64
    )
    time_slope = np.array(
        [c.time_per_sample_s for c in fleet.classes], dtype=np.float64
    )
    energy_base = np.array(
        [c.energy_base_j for c in fleet.classes], dtype=np.float64
    )
    energy_slope = np.array(
        [c.energy_per_sample_j for c in fleet.classes], dtype=np.float64
    )
    time_cols = time_base[:, None] + time_slope[:, None] * samples[None, :]
    energy_cols = (
        energy_base[:, None] + energy_slope[:, None] * samples[None, :]
    )
    # affine with non-negative slopes is already monotone; the cummax
    # keeps parity with build_cost_matrix for any future curve shapes
    time_cols = np.maximum.accumulate(time_cols, axis=1)
    energy_cols = np.maximum.accumulate(energy_cols, axis=1)
    # shared by every problem built at this width
    time_cols.flags.writeable = False
    energy_cols.flags.writeable = False
    _FLEET_MATRIX_CACHE[key] = (time_cols, energy_cols)
    return time_cols, energy_cols


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
        total_shards = max(
            1, int(fleet.data_size[idx].sum()) // shard_size
        )
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
