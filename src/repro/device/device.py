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

import copy
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


class _Series:
    """The time series of a recorded run, one entry per control
    interval, plus the per-batch completion times."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = tuple(names)
        self.times: List[float] = []
        self.temps: List[float] = []
        self.powers: List[float] = []
        self.freqs: Dict[str, List[float]] = {n: [] for n in self.names}
        self.online: Dict[str, List[bool]] = {n: [] for n in self.names}
        self.batch_times: List[float] = []

    def append(
        self, t: float, temp: float, power: float, freqs: Sequence[float]
    ) -> None:
        self.times.append(t)
        self.temps.append(temp)
        self.powers.append(power)
        for name, f in zip(self.names, freqs):
            self.freqs[name].append(f)
            self.online[name].append(f > 0)

    def trace(
        self, device: str, workload: str, total_time_s: float, energy_j: float
    ) -> TrainingTrace:
        return TrainingTrace(
            device=device,
            workload=workload,
            time_s=np.asarray(self.times),
            temp_c=np.asarray(self.temps),
            freq_ghz={k: np.asarray(v) for k, v in self.freqs.items()},
            online={k: np.asarray(v) for k, v in self.online.items()},
            power_w=np.asarray(self.powers),
            batch_times=np.asarray(self.batch_times),
            total_time_s=total_time_s,
            energy_j=energy_j,
        )


#: one cluster's throttle under a set of engaged trips: ``None`` when
#: a trip takes it offline, else ``(frequency cap GHz, rate factor)``;
#: ``(inf, 1.0)`` when no trip names it
_Cap = Optional[Tuple[float, float]]


class MobileDevice:
    """A simulated phone running training workloads on a virtual clock.

    Only the length of a run's last, partial step depends on how many
    samples it has left; every other decision of the control loop reads
    the device's state alone. So two runs that start from one state and
    draw the same jitter take the same steps until the shorter one's
    last: on a cold, jitter-free device the run at ``n`` samples is a
    prefix of the run at any ``N > n``, and :meth:`cold_runs` reads a
    whole grid of sizes off one pass.

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
        #: per-cluster throttles, keyed on the engaged-trip flags
        self._caps: Dict[Tuple[bool, ...], Tuple[_Cap, ...]] = {}

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
    def _throttle_caps(self) -> Tuple[_Cap, ...]:
        """Each cluster's throttle under the trips engaged now."""
        throttle = self.thermal.throttle()
        caps: List[_Cap] = []
        for cl in self.spec.clusters:
            decision = throttle.get(cl.name)
            if decision is None:
                caps.append((math.inf, 1.0))
            elif not decision.online:
                caps.append(None)
            else:
                cap = (
                    cl.freq_min_ghz
                    + decision.freq_cap_factor
                    * (cl.freq_max_ghz - cl.freq_min_ghz)
                )
                caps.append((cl.quantize(cap), decision.rate_factor))
        return tuple(caps)

    def _step_control(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """One governor + thermal decision at full load.

        Returns ``(freqs, rate_factors)``, one entry per cluster in spec
        order; a cluster taken offline by a trip reports frequency 0.0,
        and a sustained-load trip may scale delivered throughput via its
        rate factor.
        """
        engaged = tuple(self.thermal._engaged)
        caps = self._caps.get(engaged)
        if caps is None:
            caps = self._caps[engaged] = self._throttle_caps()
        freqs: List[float] = []
        rates: List[float] = []
        for cl, cap in zip(self.spec.clusters, caps):
            request = self.governor.select(
                cl, 1.0, self._freqs.get(cl.name, cl.freq_min_ghz),
                self.control_dt,
            )
            if cap is None:
                freqs.append(0.0)
                rates.append(1.0)
                continue
            request = min(request, cap[0])
            freqs.append(request)
            rates.append(cap[1])
            self._freqs[cl.name] = max(request, cl.freq_min_ghz)
        return tuple(freqs), tuple(rates)

    def _run(
        self,
        workload: TrainingWorkload,
        sizes: Sequence[int],
        series: Optional[_Series],
    ) -> Dict[int, Tuple[float, float]]:
        """The control-step loop: run ``workload`` to the largest of
        ``sizes`` (samples per epoch) from the current state, and read
        ``(total_time_s, energy_j)`` at each size in the step where its
        own run would end, with that run's own partial step; keyed on
        the size's index. A size whose partial step leaves it short of
        its samples is left out: its own run would take one more step,
        which this pass never takes. ``series``, when given, records the
        pass."""
        spec = self.spec
        fps = workload.flops_per_sample
        # per-run constants of the throughput and power sums, and the
        # sums themselves per (frequencies, rate factors)
        eff = [spec.cluster_efficiency(c, fps) for c in spec.clusters]
        power_util = spec.power_utilisation(fps)
        power_k = [
            spec.dyn_power_coeff_w * c.n_cores * c.util_cap * power_util
            for c in spec.clusters
        ]
        costs: Dict[
            Tuple[Tuple[float, ...], Tuple[float, ...]], Tuple[float, float]
        ] = {}

        targets = [float(n * workload.epochs) for n in sizes]
        end = max(targets)
        stops = sorted((t, i) for i, t in enumerate(targets))
        out: Dict[int, Tuple[float, float]] = {}
        k = 0  # the next stop to read

        flops_per_batch = fps * workload.batch_size
        start_clock = batch_start = self.clock_s
        energy = done = flops_into_batch = 0.0
        dt = self.control_dt

        while True:
            # stops whose own loop takes no further step end here
            while k < len(stops) and not done < stops[k][0] - 1e-9:
                out[stops[k][1]] = (self.clock_s - start_clock, energy)
                k += 1
            if not done < end - 1e-9:
                return out
            freqs, rates = self._step_control()
            cost = costs.get((freqs, rates))
            if cost is None:
                gflops = 0.0
                power = spec.idle_power_w
                for c, f, r, e, pk in zip(
                    spec.clusters, freqs, rates, eff, power_k
                ):
                    if f > 0:
                        gflops += c.throughput_gflops(f) * e * r
                        power += pk * f**3
                cost = costs[(freqs, rates)] = (gflops, power)
            gflops, power = cost
            if self.jitter:
                gflops *= max(
                    0.1, 1.0 + self._rng.normal(0.0, self.jitter)
                )
            if gflops <= 0:
                # All clusters offline (power is the idle draw): idle
                # this interval and cool down.
                energy += self.battery.drain(power, dt)
                # clusters are offline but the episode is still "loaded":
                # the workload is queued, only paused by the throttle.
                self.thermal.update(power, dt, loaded=True)
                self.clock_s += dt
                if series is not None:
                    series.append(
                        self.clock_s - start_clock, self.thermal.temp_c,
                        power, freqs,
                    )
                continue
            rate = gflops * 1e9 / fps  # samples/s
            # smaller stops whose own run ends inside this interval
            while (
                k < len(stops)
                and stops[k][0] < end
                and (stops[k][0] - done) / rate < dt
            ):
                t, i = stops[k]
                step = (t - done) / rate
                if not done + rate * step < t - 1e-9:
                    out[i] = (
                        self.clock_s + step - start_clock,
                        energy + self.battery.draw(power, step),
                    )
                k += 1
            step_time = min(dt, (end - done) / rate)
            processed = rate * step_time
            done += processed

            # Per-batch bookkeeping (batch boundaries may fall inside a
            # control interval; attribute them proportionally).
            if series is not None:
                flops_step = processed * fps
                flops_into_batch += flops_step
                while flops_into_batch >= flops_per_batch - 1e-6:
                    frac_over = (
                        flops_into_batch - flops_per_batch
                    ) / flops_step if flops_step > 0 else 0.0
                    t_done = self.clock_s + step_time * (1.0 - frac_over)
                    series.batch_times.append(t_done - batch_start)
                    batch_start = t_done
                    flops_into_batch -= flops_per_batch

            energy += self.battery.drain(power, step_time)
            self.thermal.update(power, step_time, loaded=True)
            self.clock_s += step_time
            if series is not None:
                series.append(
                    self.clock_s - start_clock, self.thermal.temp_c, power,
                    freqs,
                )

    # -- main entry points -------------------------------------------------
    def run_workload(
        self, workload: TrainingWorkload, record: bool = True
    ) -> TrainingTrace:
        """Run a training workload to completion on the virtual clock.

        Returns the recorded trace; ``record=False`` skips storing the
        time series (fits tight scheduling loops) but still returns a
        trace with the scalar totals filled in.
        """
        series = _Series([c.name for c in self.spec.clusters])
        total_time_s, energy_j = self._run(
            workload, (workload.n_samples,), series if record else None
        )[0]
        return series.trace(
            self.spec.name, workload.model_name, total_time_s, energy_j
        )

    def cold_runs(
        self, workload: TrainingWorkload, sizes: Sequence[int]
    ) -> List[TrainingTrace]:
        """The ``record=False`` trace of a cold-start run of ``workload``
        at each of ``sizes`` samples (its ``n_samples`` is ignored), bit
        for bit what ``reset()`` then ``run_workload(..., record=False)``
        returns, read off one pass to the largest size (see the class
        docstring). A size whose own last partial step would fall short
        of its samples gets its own cold run. Needs a jitter-free
        device, and leaves it warm."""
        if self.jitter:
            raise ValueError("cold runs need a jitter-free device")
        if not len(sizes):
            raise ValueError("need at least one size")
        if min(sizes) < 0:
            raise ValueError("sizes must be non-negative")
        self.reset()
        names = [c.name for c in self.spec.clusters]
        cells = self._run(workload, sizes, None)
        traces = []
        for i, n in enumerate(sizes):
            cell = cells.get(i)
            if cell is None:
                self.reset()
                cell = self._run(workload, (n,), None)[0]
            traces.append(
                _Series(names).trace(
                    self.spec.name, workload.model_name, *cell
                )
            )
        return traces

    def time_for_workload(self, workload: TrainingWorkload) -> float:
        """Virtual seconds to finish the workload from the current state,
        predicted on a copy: the device, its jitter generator and its
        governor are left as they were."""
        twin = copy.deepcopy(self)
        return twin.run_workload(workload, record=False).total_time_s

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
