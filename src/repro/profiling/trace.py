"""Measurement collection for offline profiling.

The server "builds performance profiles for the participants ... either
online through a bootstrapping phase or offline measured by a collection
of devices" (Sec. IV-B). Here the collection runs against the device
simulator: each (architecture, data size) cell is trained once from a
cold start and its virtual wall time recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..device.device import MobileDevice
from ..device.workload import TrainingWorkload
from ..models.flops import model_training_flops
from ..models.network import Sequential

__all__ = ["ProfileMeasurement", "measure_grid"]


@dataclass(frozen=True)
class ProfileMeasurement:
    """One profiling run: a model trained on ``n_samples`` samples."""

    model_name: str
    conv_params: int
    dense_params: int
    n_samples: int
    time_s: float


def _whole_sizes(data_sizes: Sequence[float]) -> Tuple[int, ...]:
    """The data sizes as sample counts. Python or NumPy integers and
    integral floats pass; ``ValueError`` names any size that is not a
    whole number >= 1, so a fit never runs on counts it did not
    simulate."""
    if not len(data_sizes):
        raise ValueError("need at least one data size")
    bad = [d for d in data_sizes if not (d >= 1 and float(d).is_integer())]
    if bad:
        raise ValueError(
            f"data sizes must be whole numbers of samples >= 1, not {bad}"
        )
    return tuple(int(d) for d in data_sizes)


def measure_grid(
    device: MobileDevice,
    models: Sequence[Sequential],
    data_sizes: Sequence[int],
    batch_size: int = 20,
    cold_start: bool = True,
) -> List[ProfileMeasurement]:
    """Train every model at every data size; return the measurements.

    ``cold_start`` resets the device (ambient temperature, full battery)
    before each run, matching an offline lab profiling procedure with
    cool-down between measurements. Passing ``False`` profiles the
    sustained-load regime instead.
    """
    if not models:
        raise ValueError("need at least one model to profile")
    sizes = _whole_sizes(data_sizes)
    out: List[ProfileMeasurement] = []
    for model in models:
        split = model.param_split()
        flops = model_training_flops(model)
        for d in sizes:
            if cold_start:
                device.reset()
            workload = TrainingWorkload(
                flops_per_sample=flops,
                n_samples=d,
                batch_size=batch_size,
                model_name=model.name,
            )
            trace = device.run_workload(workload, record=False)
            out.append(
                ProfileMeasurement(
                    model_name=model.name,
                    conv_params=split.conv,
                    dense_params=split.dense,
                    n_samples=d,
                    time_s=trace.total_time_s,
                )
            )
    return out
