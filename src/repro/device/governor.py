"""CPU frequency governors.

Android's ``cpufreq`` subsystem delegates frequency selection to a
governor; the paper's testbed runs the stock *interactive* governor of
Android 8 (Sec. II-A). We model the governor as a per-cluster policy
sampled on a timer: given the recent load it requests a frequency,
which the thermal layer may then cap (see :mod:`repro.device.thermal`).

``interactive`` is the one that matters for reproducing Fig. 1(c); the
others (performance / powersave / ondemand) exist for ablations and to
show the framework is governor-agnostic, as the paper claims its
scheduling works "while still using the default governor".
"""

from __future__ import annotations

from typing import Dict, Tuple

from .specs import ClusterSpec

__all__ = [
    "Governor",
    "InteractiveGovernor",
    "PerformanceGovernor",
    "PowersaveGovernor",
    "OndemandGovernor",
    "SchedutilGovernor",
    "make_governor",
]


class Governor:
    """Per-cluster frequency policy. Stateful across ``select`` calls."""

    name = "base"

    def reset(self) -> None:
        """Clear per-run state (called when a device is reset)."""

    def select(
        self, cluster: ClusterSpec, load: float, current_ghz: float, dt: float
    ) -> float:
        """Return the requested frequency (GHz) for the next interval.

        Parameters
        ----------
        cluster:
            Static cluster description (frequency range, OPPs).
        load:
            Average utilisation in [0, 1] over the last interval.
        current_ghz:
            Frequency the cluster ran at during the last interval.
        dt:
            Interval length in seconds.
        """
        raise NotImplementedError


class InteractiveGovernor(Governor):
    """Android's *interactive* governor (simplified but faithful).

    * When load crosses ``go_hispeed_load`` the cluster jumps to
      ``hispeed_freq`` (a fraction of max) immediately.
    * While load stays high past ``above_hispeed_delay`` seconds the
      request ramps toward max frequency.
    * When load drops, the request decays toward the frequency matching
      the load (``target_load`` heuristic).

    Under the sustained 100 % load of backpropagation this reaches max
    frequency within a few timer ticks, exactly the behaviour the
    paper's Fig. 1(c) traces show before thermal effects kick in.
    """

    name = "interactive"

    def __init__(
        self,
        go_hispeed_load: float = 0.85,
        hispeed_fraction: float = 0.8,
        above_hispeed_delay_s: float = 0.04,
        target_load: float = 0.9,
        ramp_rate_ghz_per_s: float = 8.0,
    ) -> None:
        if not 0 < go_hispeed_load <= 1:
            raise ValueError("go_hispeed_load must be in (0, 1]")
        self.go_hispeed_load = go_hispeed_load
        self.hispeed_fraction = hispeed_fraction
        self.above_hispeed_delay_s = above_hispeed_delay_s
        self.target_load = target_load
        self.ramp_rate_ghz_per_s = ramp_rate_ghz_per_s
        self._time_above: Dict[str, float] = {}
        #: ``(cluster, hispeed target, top OPP)`` by cluster name,
        #: computed at the first ``select`` of that cluster object and
        #: read while it is the one passed. Not run state: ``reset``
        #: keeps them.
        self._targets: Dict[str, Tuple[ClusterSpec, float, float]] = {}

    def reset(self) -> None:
        self._time_above.clear()

    def select(
        self, cluster: ClusterSpec, load: float, current_ghz: float, dt: float
    ) -> float:
        entry = self._targets.get(cluster.name)
        if entry is None or entry[0] is not cluster:
            hispeed = (
                cluster.freq_min_ghz
                + self.hispeed_fraction
                * (cluster.freq_max_ghz - cluster.freq_min_ghz)
            )
            # quantize(freq_max_ghz) may differ from it in the last bit
            top = cluster.quantize(cluster.freq_max_ghz)
            entry = self._targets[cluster.name] = (cluster, hispeed, top)
        _, hispeed, top = entry
        fmax = cluster.freq_max_ghz
        above = self._time_above.get(cluster.name, 0.0)
        if load >= self.go_hispeed_load:
            above += dt
            self._time_above[cluster.name] = above
            request = max(current_ghz, hispeed)
            if above >= self.above_hispeed_delay_s:
                request = min(
                    fmax,
                    max(request, current_ghz) + self.ramp_rate_ghz_per_s * dt,
                )
        else:
            self._time_above[cluster.name] = 0.0
            # Track the frequency that would put the cluster at target_load.
            request = max(
                cluster.freq_min_ghz,
                current_ghz * load / self.target_load,
            )
        if request >= fmax:
            return top
        return cluster.quantize(request)


class PerformanceGovernor(Governor):
    """Pin every cluster at maximum frequency."""

    name = "performance"

    def select(
        self, cluster: ClusterSpec, load: float, current_ghz: float, dt: float
    ) -> float:
        return cluster.freq_max_ghz


class PowersaveGovernor(Governor):
    """Pin every cluster at minimum frequency."""

    name = "powersave"

    def select(
        self, cluster: ClusterSpec, load: float, current_ghz: float, dt: float
    ) -> float:
        return cluster.freq_min_ghz


class SchedutilGovernor(Governor):
    """The modern utilisation-driven governor (Android 9+ default).

    ``freq = headroom * load * f_max`` clamped to the OPP range — the
    kernel's ``schedutil`` formula with its 1.25x headroom. Included so
    the framework's governor-agnosticism claim can be tested against
    the policy that replaced *interactive*.
    """

    name = "schedutil"

    def __init__(self, headroom: float = 1.25) -> None:
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")
        self.headroom = headroom

    def select(
        self, cluster: ClusterSpec, load: float, current_ghz: float, dt: float
    ) -> float:
        target = self.headroom * load * cluster.freq_max_ghz
        target = min(max(target, cluster.freq_min_ghz), cluster.freq_max_ghz)
        return cluster.quantize(target)


class OndemandGovernor(Governor):
    """Classic ondemand: jump to max above the up-threshold, otherwise
    scale the frequency proportionally to load."""

    name = "ondemand"

    def __init__(self, up_threshold: float = 0.8) -> None:
        if not 0 < up_threshold <= 1:
            raise ValueError("up_threshold must be in (0, 1]")
        self.up_threshold = up_threshold

    def select(
        self, cluster: ClusterSpec, load: float, current_ghz: float, dt: float
    ) -> float:
        if load >= self.up_threshold:
            return cluster.freq_max_ghz
        span = cluster.freq_max_ghz - cluster.freq_min_ghz
        return cluster.quantize(cluster.freq_min_ghz + load * span)


_GOVERNORS = {
    "interactive": InteractiveGovernor,
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "ondemand": OndemandGovernor,
    "schedutil": SchedutilGovernor,
}


def make_governor(name: str, **kwargs) -> Governor:
    """Instantiate a governor by name."""
    try:
        cls = _GOVERNORS[name]
    except KeyError:
        raise KeyError(
            f"unknown governor {name!r}; available: {sorted(_GOVERNORS)}"
        ) from None
    return cls(**kwargs)
