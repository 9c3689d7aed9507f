"""Columnar fleet: struct-of-arrays client populations at 10⁶ scale.

The package has four layers:

* :mod:`repro.fleet.store` — the :class:`FleetStore` single source of
  truth (NumPy column per attribute, per-class constants broadcast via
  ``class_id``) plus object views that keep the legacy per-client
  interfaces working, bit-identically;
* :mod:`repro.fleet.sampling` — seeded per-round cohort samplers
  (uniform: k smallest uniforms; data-size-biased: Gumbel-top-k);
* :mod:`repro.fleet.round` — the one columnar round core (plan →
  dispatch → close) that the fleet runner and the serve coordinator
  drive;
* :mod:`repro.fleet.runner` — the vectorized round driver.

No module here imports ``time``: records and columns are virtual state
only, the solver's host cost is read in one place
(:func:`repro.sched.binding.timed_schedule`) and the round path is
timed from outside (``perfbench/``). See ``docs/fleet.md`` for the
design rationale.
"""

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
    "DEFAULT_CLASS_LINKS",
    "CohortSampler",
    "DataSizeBiasedSampler",
    "DeviceClass",
    "FleetDevice",
    "FleetLink",
    "FleetRoundRecord",
    "FleetRunner",
    "FleetStore",
    "FleetTrace",
    "ParetoSampler",
    "UniformSampler",
    "available_samplers",
    "default_device_classes",
    "device_class_from_name",
    "make_sampler",
    "synthetic_fleet",
]
