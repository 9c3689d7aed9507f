"""The mobile-device simulator.

:class:`MobileDevice` composes a calibrated :class:`DeviceSpec` with a
frequency governor, thermal state and battery, and advances a virtual
clock while "running" training workloads. The simulation is a
discrete-time control loop:

1. the governor requests a frequency per cluster from the observed load;
2. active thermal trips cap frequencies or take clusters offline;
3. the resulting throughput processes samples for one control interval;
4. the dissipated power advances the thermal RC model and drains the
   battery.

This emergent interplay — not a lookup table — produces the paper's
empirical phenomena: frequency/temperature traces that stabilise under
power management (Fig. 1c), superlinear time growth on thermally-limited
devices (Nexus 6P's 69 s -> 220 s when doubling data, Table II), and the
straggler gaps that motivate load *un*balancing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .battery import BatteryState
from .governor import Governor, InteractiveGovernor
from .specs import DeviceSpec
from .thermal import ThermalState
from .workload import TrainingWorkload

__all__ = ["MobileDevice", "TrainingTrace"]


@dataclass
class TrainingTrace:
    """Time series recorded while a workload ran.

    All arrays are aligned on control-interval boundaries; ``batch_times``
    additionally gives the per-batch completion durations used for the
    Fig. 1(a-b) style plots.
    """

    device: str
    workload: str
    time_s: np.ndarray
    temp_c: np.ndarray
    freq_ghz: Dict[str, np.ndarray]
    online: Dict[str, np.ndarray]
    power_w: np.ndarray
    batch_times: np.ndarray
    total_time_s: float
    energy_j: float

    def mean_freq_ghz(self) -> Dict[str, float]:
        """Average frequency per cluster over the run."""
        return {
            name: float(f.mean()) if f.size else 0.0
            for name, f in self.freq_ghz.items()
        }

    def peak_temp_c(self) -> float:
        return float(self.temp_c.max()) if self.temp_c.size else 0.0

    def to_csv(self, path) -> None:
        """Write the control-interval series as CSV (time, temp, power,
        one frequency column per cluster) for external analysis."""
        import csv

        cluster_names = sorted(self.freq_ghz)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["time_s", "temp_c", "power_w"]
                + [f"freq_{c}_ghz" for c in cluster_names]
            )
            for i in range(self.time_s.size):
                writer.writerow(
                    [
                        f"{self.time_s[i]:.3f}",
                        f"{self.temp_c[i]:.3f}",
                        f"{self.power_w[i]:.3f}",
                    ]
                    + [
                        f"{self.freq_ghz[c][i]:.3f}"
                        for c in cluster_names
                    ]
                )


class MobileDevice:
    """A simulated phone running training workloads on a virtual clock.

    Parameters
    ----------
    spec:
        Calibrated hardware description.
    governor:
        Frequency governor; defaults to Android's *interactive*.
    control_dt:
        Control-loop interval in virtual seconds. 0.5 s balances trace
        fidelity against simulation cost (a 1000 s epoch = 2000 steps).
    seed:
        Seed for the small per-interval throughput jitter that models
        background activity (the paper's traces show a few percent of
        per-batch noise even on thermally stable devices).
    jitter:
        Relative std-dev of the throughput jitter; 0 disables it.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        governor: Optional[Governor] = None,
        control_dt: float = 0.5,
        seed: int = 0,
        jitter: float = 0.02,
    ) -> None:
        if control_dt <= 0:
            raise ValueError("control_dt must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.spec = spec
        self.governor = governor or InteractiveGovernor()
        self.control_dt = float(control_dt)
        self.jitter = float(jitter)
        self._rng = np.random.default_rng(seed)
        self.thermal = ThermalState(spec.thermal)
        self.battery = BatteryState(spec.battery)
        self.clock_s = 0.0
        self._freqs: Dict[str, float] = {
            c.name: c.freq_min_ghz for c in spec.clusters
        }

    # -- lifecycle -------------------------------------------------------
    def reset(self, soc: float = 1.0) -> None:
        """Cold restart: ambient temperature, full battery, min freqs."""
        self.thermal.reset()
        self.battery.reset(soc)
        self.governor.reset()
        self.clock_s = 0.0
        self._freqs = {
            c.name: c.freq_min_ghz for c in self.spec.clusters
        }

    # -- physics helpers -------------------------------------------------
    def _step_control(self, load: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        """One governor + thermal decision.

        Returns ``(freqs, rate_factors)`` per cluster; a cluster taken
        offline by a trip reports frequency 0.0, and a sustained-load
        trip may scale delivered throughput via its rate factor.
        """
        throttle = self.thermal.throttle()
        freqs: Dict[str, float] = {}
        rates: Dict[str, float] = {}
        for cl in self.spec.clusters:
            request = self.governor.select(
                cl, load, self._freqs.get(cl.name, cl.freq_min_ghz),
                self.control_dt,
            )
            rates[cl.name] = 1.0
            decision = throttle.get(cl.name)
            if decision is not None:
                if not decision.online:
                    freqs[cl.name] = 0.0
                    continue
                cap = (
                    cl.freq_min_ghz
                    + decision.freq_cap_factor
                    * (cl.freq_max_ghz - cl.freq_min_ghz)
                )
                request = min(request, cl.quantize(cap))
                rates[cl.name] = decision.rate_factor
            freqs[cl.name] = request
            self._freqs[cl.name] = max(request, cl.freq_min_ghz)
        return freqs, rates

    def _throughput_gflops(
        self,
        freqs: Dict[str, float],
        flops_per_sample: float,
        rate_factors: Optional[Dict[str, float]] = None,
    ) -> float:
        """Workload-effective GFLOPS at the given cluster frequencies,
        scaled by any sustained-load duty-cycle factors."""
        total = 0.0
        for c in self.spec.clusters:
            f = freqs.get(c.name, 0.0)
            if f <= 0:
                continue
            gf = c.throughput_gflops(f) * self.spec.cluster_efficiency(
                c, flops_per_sample
            )
            if rate_factors is not None:
                gf *= rate_factors.get(c.name, 1.0)
            total += gf
        return total

    def _power_w(
        self, freqs: Dict[str, float], load: float, power_util: float = 1.0
    ) -> float:
        p = self.spec.idle_power_w
        for cl in self.spec.clusters:
            f = freqs.get(cl.name, 0.0)
            if f > 0 and load > 0:
                p += (
                    self.spec.dyn_power_coeff_w
                    * cl.n_cores
                    * cl.util_cap
                    * load
                    * power_util
                    * f**3
                )
        return p

    # -- main entry points -------------------------------------------------
    def run_workload(
        self, workload: TrainingWorkload, record: bool = True
    ) -> TrainingTrace:
        """Run a training workload to completion on the virtual clock.

        Returns the recorded trace; ``record=False`` skips storing the
        time series (fits tight scheduling loops) but still returns a
        trace with the scalar totals filled in.
        """
        power_util = self.spec.power_utilisation(workload.flops_per_sample)
        total_samples = float(workload.n_samples * workload.epochs)
        flops_per_batch = workload.flops_per_sample * workload.batch_size

        times: List[float] = []
        temps: List[float] = []
        powers: List[float] = []
        freq_hist: Dict[str, List[float]] = {
            c.name: [] for c in self.spec.clusters
        }
        online_hist: Dict[str, List[bool]] = {
            c.name: [] for c in self.spec.clusters
        }
        batch_times: List[float] = []

        start_clock = self.clock_s
        energy = 0.0
        done = 0.0
        flops_into_batch = 0.0
        batch_start = self.clock_s
        dt = self.control_dt

        while done < total_samples - 1e-9:
            freqs, rates = self._step_control(load=1.0)
            gflops = self._throughput_gflops(
                freqs, workload.flops_per_sample, rates
            )
            if self.jitter:
                gflops *= max(
                    0.1, 1.0 + self._rng.normal(0.0, self.jitter)
                )
            if gflops <= 0:
                # All clusters offline: idle this interval and cool down.
                power = self.spec.idle_power_w
                energy += self.battery.drain(power, dt)
                # clusters are offline but the episode is still "loaded":
                # the workload is queued, only paused by the throttle.
                self.thermal.update(power, dt, loaded=True)
                self.clock_s += dt
                if record:
                    times.append(self.clock_s - start_clock)
                    temps.append(self.thermal.temp_c)
                    powers.append(power)
                    for c in self.spec.clusters:
                        freq_hist[c.name].append(freqs.get(c.name, 0.0))
                        online_hist[c.name].append(
                            freqs.get(c.name, 0.0) > 0
                        )
                continue
            rate = gflops * 1e9 / workload.flops_per_sample  # samples/s
            remaining = total_samples - done
            step_time = min(dt, remaining / rate)
            processed = rate * step_time
            done += processed

            # Per-batch bookkeeping (batch boundaries may fall inside a
            # control interval; attribute them proportionally).
            if record:
                flops_step = processed * workload.flops_per_sample
                flops_into_batch += flops_step
                while flops_into_batch >= flops_per_batch - 1e-6:
                    frac_over = (
                        flops_into_batch - flops_per_batch
                    ) / flops_step if flops_step > 0 else 0.0
                    t_done = self.clock_s + step_time * (1.0 - frac_over)
                    batch_times.append(t_done - batch_start)
                    batch_start = t_done
                    flops_into_batch -= flops_per_batch

            power = self._power_w(freqs, load=1.0, power_util=power_util)
            energy += self.battery.drain(power, step_time)
            self.thermal.update(power, step_time, loaded=True)
            self.clock_s += step_time

            if record:
                times.append(self.clock_s - start_clock)
                temps.append(self.thermal.temp_c)
                powers.append(power)
                for c in self.spec.clusters:
                    freq_hist[c.name].append(freqs.get(c.name, 0.0))
                    online_hist[c.name].append(freqs.get(c.name, 0.0) > 0)

        return TrainingTrace(
            device=self.spec.name,
            workload=workload.model_name,
            time_s=np.asarray(times),
            temp_c=np.asarray(temps),
            freq_ghz={k: np.asarray(v) for k, v in freq_hist.items()},
            online={k: np.asarray(v) for k, v in online_hist.items()},
            power_w=np.asarray(powers),
            batch_times=np.asarray(batch_times),
            total_time_s=self.clock_s - start_clock,
            energy_j=energy,
        )

    def time_for_workload(self, workload: TrainingWorkload) -> float:
        """Virtual seconds to finish the workload from the current state
        (does not mutate device state)."""
        snapshot = (
            self.thermal.temp_c,
            list(self.thermal._engaged),
            self.thermal.load_time_s,
            self.battery.remaining_j,
            dict(self._freqs),
            self.clock_s,
        )
        trace = self.run_workload(workload, record=False)
        (
            self.thermal.temp_c,
            engaged,
            load_time,
            energy,
            freqs,
            clock,
        ) = snapshot
        self.thermal._engaged = engaged
        self.thermal.load_time_s = load_time
        self.battery._energy_j = energy
        self._freqs = freqs
        self.clock_s = clock
        return trace.total_time_s

    def idle(self, seconds: float) -> None:
        """Advance the clock with no workload (cooling + idle drain)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        remaining = seconds
        while remaining > 1e-12:
            dt = min(self.control_dt * 4, remaining)
            self.battery.drain(self.spec.idle_power_w, dt)
            self.thermal.update(self.spec.idle_power_w, dt, loaded=False)
            self.clock_s += dt
            remaining -= dt
