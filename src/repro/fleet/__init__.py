"""Columnar fleet: struct-of-arrays client populations at 10⁶ scale.

The package has four layers:

* :mod:`repro.fleet.store` — the :class:`FleetStore` single source of
  truth (NumPy column per attribute, per-class constants broadcast via
  ``class_id``) plus object views that keep the legacy per-client
  interfaces working, bit-identically;
* :mod:`repro.fleet.sampling` — seeded per-round cohort samplers
  (uniform and data-size-biased Gumbel-top-k);
* :mod:`repro.fleet.round` — the one columnar round core (plan →
  dispatch → close) that the fleet runner and the serve coordinator
  drive;
* :mod:`repro.fleet.runner` / :mod:`repro.fleet.bench` — the
  vectorized round driver and the ``repro bench fleet`` n-sweep.

See ``docs/fleet.md`` for the design rationale and scaling numbers.
"""

from .bench import (
    DEFAULT_BENCH_SCHEDULERS,
    DEFAULT_NS,
    FleetBenchRow,
    bench_fleet,
    format_bench,
    git_sha,
    write_bench,
)
from .runner import FleetRoundRecord, FleetRunner
from .sampling import (
    CohortSampler,
    DataSizeBiasedSampler,
    ParetoSampler,
    UniformSampler,
    available_samplers,
    make_sampler,
)
from .store import (
    DEFAULT_CLASS_LINKS,
    DeviceClass,
    FleetDevice,
    FleetLink,
    FleetStore,
    FleetTrace,
    default_device_classes,
    device_class_from_name,
    synthetic_fleet,
)

__all__ = [
    "DEFAULT_BENCH_SCHEDULERS",
    "DEFAULT_CLASS_LINKS",
    "DEFAULT_NS",
    "CohortSampler",
    "DataSizeBiasedSampler",
    "DeviceClass",
    "FleetBenchRow",
    "FleetDevice",
    "FleetLink",
    "FleetRoundRecord",
    "FleetRunner",
    "FleetStore",
    "FleetTrace",
    "ParetoSampler",
    "UniformSampler",
    "available_samplers",
    "bench_fleet",
    "default_device_classes",
    "device_class_from_name",
    "format_bench",
    "git_sha",
    "make_sampler",
    "synthetic_fleet",
    "write_bench",
]
