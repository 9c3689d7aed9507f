"""Hardware specifications for the simulated mobile testbed.

Mirrors Table I of the paper:

=========  ===============  ==========================  ==========
model      SoC              CPU                         big.LITTLE
=========  ===============  ==========================  ==========
Nexus 6    Snapdragon 805   4 x 2.7 GHz                 no
Nexus 6P   Snapdragon 810   4 x 1.55 + 4 x 2.0 GHz      yes
Mate 10    Kirin 970        4 x 2.36 + 4 x 1.8 GHz      yes
Pixel 2    Snapdragon 835   4 x 2.35 + 4 x 1.9 GHz      yes
=========  ===============  ==========================  ==========

Beyond the public clock specs, each device carries *calibrated*
constants — effective FLOP throughput per core-GHz, an arithmetic-
intensity efficiency curve, power coefficients and thermal trip
behaviour — chosen so the simulator reproduces the paper's measured
epoch times (Table II) and throttling pathologies (Fig. 1, Obs. 1-2,
in particular the Snapdragon-810 big-core shutdowns on the Nexus 6P).
The calibration lives in :mod:`repro.device.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

__all__ = ["ClusterSpec", "TripPoint", "ThermalSpec", "BatterySpec", "DeviceSpec"]


@lru_cache(maxsize=256, typed=True)
def _opp_table(
    freq_min_ghz: float, freq_max_ghz: float, n_opp: int
) -> Tuple[float, ...]:
    if n_opp == 1:
        return (freq_max_ghz,)
    step = (freq_max_ghz - freq_min_ghz) / (n_opp - 1)
    return tuple(freq_min_ghz + i * step for i in range(n_opp))


@dataclass(frozen=True)
class ClusterSpec:
    """One CPU cluster (a big.LITTLE SoC has two, a symmetric SoC one).

    Attributes
    ----------
    name:
        ``"big"``, ``"little"`` or ``"uni"``.
    n_cores:
        Core count in the cluster.
    freq_min_ghz / freq_max_ghz:
        DVFS range; governors pick frequencies inside it.
    n_opp:
        Number of discrete operating points spread linearly over the
        range (real OPP tables are discrete; granularity matters for
        governor traces, not for throughput).
    gflops_per_core_ghz:
        Calibrated effective GFLOPS contributed by one core per GHz at
        efficiency 1.0 (captures ISA width, memory system, BLAS quality
        — the vendor-specific factors behind the paper's Observation 1).
    util_cap:
        Fraction of the cluster the training workload can actually load
        (the paper observes the Nexus 6P big cores sit below 50 %
        utilisation — a scheduler/driver artefact we reproduce here).
    """

    name: str
    n_cores: int
    freq_min_ghz: float
    freq_max_ghz: float
    gflops_per_core_ghz: float
    n_opp: int = 12
    util_cap: float = 1.0
    #: optional per-cluster efficiency half-point overriding the
    #: device-level one: little clusters with weaker memory systems are
    #: disproportionately bad at low-arithmetic-intensity workloads
    #: (None = use DeviceSpec.flops_half).
    flops_half: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if not 0 < self.freq_min_ghz <= self.freq_max_ghz:
            raise ValueError("need 0 < freq_min <= freq_max")
        if self.gflops_per_core_ghz <= 0:
            raise ValueError("gflops_per_core_ghz must be positive")
        if not 0 < self.util_cap <= 1:
            raise ValueError("util_cap must be in (0, 1]")

    def opp_table(self) -> Tuple[float, ...]:
        """Discrete frequencies the governor may select (ascending GHz),
        computed once per range and count: ``quantize`` reads it on
        every governor step."""
        return _opp_table(self.freq_min_ghz, self.freq_max_ghz, self.n_opp)

    def quantize(self, freq_ghz: float) -> float:
        """Snap a requested frequency to the nearest not-lower OPP."""
        for f in self.opp_table():
            if f >= freq_ghz - 1e-9:
                return f
        return self.freq_max_ghz

    def throughput_gflops(self, freq_ghz: float, online: bool = True) -> float:
        """Cluster GFLOPS at a frequency (0 when offline)."""
        if not online:
            return 0.0
        return (
            self.n_cores
            * freq_ghz
            * self.gflops_per_core_ghz
            * self.util_cap
        )


@dataclass(frozen=True)
class TripPoint:
    """A thermal trip with hysteresis.

    When the die temperature crosses ``temp_on`` the action engages;
    it releases once the temperature falls below ``temp_off``.

    ``freq_cap_factor`` multiplies the affected cluster's max frequency
    (1.0 = no cap); ``offline`` shuts the cluster down entirely — the
    Snapdragon-810 behaviour the paper highlights in Observation 2.

    ``sustained_s`` makes the trip a *sustained-load* stage: it only
    engages after the device has been continuously under load for that
    many seconds (and the temperature condition holds). ``rate_factor``
    scales the cluster's delivered throughput directly, modelling
    OS-level duty-cycling of the training process (the vendor thermal
    engine pausing the app), which frequency caps alone cannot express
    — the effective rate floor of a frequency cap is f_min, but a
    duty-cycled process can be slowed arbitrarily.
    """

    temp_on: float
    temp_off: float
    cluster: str
    freq_cap_factor: float = 1.0
    offline: bool = False
    sustained_s: Optional[float] = None
    rate_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.temp_off >= self.temp_on:
            raise ValueError("temp_off must be below temp_on (hysteresis)")
        if not 0 < self.freq_cap_factor <= 1:
            raise ValueError("freq_cap_factor must be in (0, 1]")
        if self.sustained_s is not None and self.sustained_s <= 0:
            raise ValueError("sustained_s must be positive when set")
        if not 0 < self.rate_factor <= 1:
            raise ValueError("rate_factor must be in (0, 1]")


@dataclass(frozen=True)
class ThermalSpec:
    """Lumped-RC thermal model parameters.

    Steady-state die temperature under power ``P`` is
    ``ambient + r_thermal * P``; the approach to steady state is
    exponential with time constant ``tau_s``.
    """

    ambient_c: float = 25.0
    r_thermal_c_per_w: float = 6.0
    tau_s: float = 60.0
    trip_points: Tuple[TripPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.r_thermal_c_per_w <= 0 or self.tau_s <= 0:
            raise ValueError("thermal resistance and tau must be positive")


@dataclass(frozen=True)
class BatterySpec:
    """Battery electrical parameters (energy accounting + capacity C_j)."""

    capacity_mah: float = 3000.0
    voltage_v: float = 3.85

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0 or self.voltage_v <= 0:
            raise ValueError("battery parameters must be positive")

    @property
    def energy_j(self) -> float:
        """Full-charge energy in joules."""
        return self.capacity_mah * 3.6 * self.voltage_v


@dataclass(frozen=True)
class DeviceSpec:
    """Complete calibrated description of one phone model.

    ``flops_half`` parameterises the arithmetic-intensity efficiency
    curve ``eff(F) = F / (F + flops_half)`` where ``F`` is the per-sample
    training FLOPs of the model being trained: small models (LeNet) run
    memory-bound small GEMMs and reach a fraction of peak, heavy conv
    models (VGG6) approach it. This single curve reproduces the paper's
    observation that device *ordering* differs between LeNet and VGG6
    (Nexus 6 is 3x faster than Mate 10 on LeNet yet slower on VGG6).

    Power model per cluster: ``idle_power_w`` plus
    ``dyn_power_coeff_w * n_cores * f_ghz**3`` when loaded.
    """

    name: str
    soc: str
    clusters: Tuple[ClusterSpec, ...]
    thermal: ThermalSpec = field(default_factory=ThermalSpec)
    battery: BatterySpec = field(default_factory=BatterySpec)
    flops_half: float = 7.0e7
    idle_power_w: float = 0.6
    dyn_power_coeff_w: float = 0.12
    #: dynamic power scales with workload intensity: low-intensity
    #: (memory-bound) training keeps the FPUs partly idle and draws less
    #: power than a dense conv stack at the same frequency. The factor is
    #: ``util_floor + (1 - util_floor) * efficiency(model)``.
    util_floor: float = 0.3
    release_year: int = 2016

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("device needs at least one cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        if self.flops_half <= 0:
            raise ValueError("flops_half must be positive")

    @property
    def is_big_little(self) -> bool:
        return len(self.clusters) > 1

    def cluster(self, name: str) -> ClusterSpec:
        for c in self.clusters:
            if c.name == name:
                return c
        raise KeyError(f"device {self.name!r} has no cluster {name!r}")

    def peak_gflops(self) -> float:
        """All clusters online at max frequency, efficiency 1.0."""
        return sum(
            c.throughput_gflops(c.freq_max_ghz) for c in self.clusters
        )

    def efficiency(self, flops_per_sample: float) -> float:
        """Device-level arithmetic-intensity efficiency (used for power;
        throughput uses the per-cluster variant)."""
        if flops_per_sample <= 0:
            raise ValueError("flops_per_sample must be positive")
        return flops_per_sample / (flops_per_sample + self.flops_half)

    def cluster_efficiency(
        self, cluster: ClusterSpec, flops_per_sample: float
    ) -> float:
        """Efficiency of one cluster for a workload (per-cluster
        ``flops_half`` override, falling back to the device level)."""
        if flops_per_sample <= 0:
            raise ValueError("flops_per_sample must be positive")
        h = (
            cluster.flops_half
            if cluster.flops_half is not None
            else self.flops_half
        )
        return flops_per_sample / (flops_per_sample + h)

    def effective_gflops(
        self,
        flops_per_sample: float,
        freqs: Optional[dict] = None,
    ) -> float:
        """Workload-effective GFLOPS with all clusters online.

        ``freqs`` optionally maps cluster name -> GHz (0 = offline);
        default is every cluster at max frequency.
        """
        total = 0.0
        for c in self.clusters:
            f = c.freq_max_ghz if freqs is None else freqs.get(c.name, 0.0)
            if f > 0:
                total += c.throughput_gflops(f) * self.cluster_efficiency(
                    c, flops_per_sample
                )
        return total

    def power_utilisation(self, flops_per_sample: float) -> float:
        """Fraction of full dynamic power a workload draws (see
        ``util_floor``)."""
        eff = self.efficiency(flops_per_sample)
        return self.util_floor + (1.0 - self.util_floor) * eff
