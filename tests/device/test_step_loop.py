"""``MobileDevice`` has one control-step loop.

``run_workload`` is its one-size case and ``cold_runs`` reads a grid of
sizes off one cold pass. The loop they replaced lives here as the
reference (``_retired_run``, with the linear OPP scan and the battery
clamp it called): every trace array, every total and every bit of
device state must come out as it did, and every grid cell must equal
its own cold run ``.hex()`` for ``.hex()``.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import (
    BatterySpec,
    ClusterSpec,
    DeviceSpec,
    MobileDevice,
    ThermalSpec,
    TrainingWorkload,
    available_devices,
    build_spec,
    make_device,
)
from repro.device.device import TrainingTrace
from repro.device.governor import PerformanceGovernor

GOVERNORS = ("interactive", "performance", "powersave", "ondemand", "schedutil")
#: training FLOPs per sample of lenet_mini and lenet on MNIST
MODEL_FLOPS = (140304.0, 12486180.0)


def _retired_quantize(cluster, freq_ghz):
    for f in cluster.opp_table():
        if f >= freq_ghz - 1e-9:
            return f
    return cluster.freq_max_ghz


def _retired_drain(battery, power_w, dt):
    need = power_w * dt
    if need > battery._energy_j:
        drawn = battery._energy_j
        battery._energy_j = 0.0
        return drawn
    battery._energy_j -= need
    return need


def _retired_step_control(dev, load):
    throttle = dev.thermal.throttle()
    freqs, rates = {}, {}
    for cl in dev.spec.clusters:
        request = dev.governor.select(
            cl, load, dev._freqs.get(cl.name, cl.freq_min_ghz), dev.control_dt
        )
        rates[cl.name] = 1.0
        decision = throttle.get(cl.name)
        if decision is not None:
            if not decision.online:
                freqs[cl.name] = 0.0
                continue
            cap = cl.freq_min_ghz + decision.freq_cap_factor * (
                cl.freq_max_ghz - cl.freq_min_ghz
            )
            request = min(request, _retired_quantize(cl, cap))
            rates[cl.name] = decision.rate_factor
        freqs[cl.name] = request
        dev._freqs[cl.name] = max(request, cl.freq_min_ghz)
    return freqs, rates


def _retired_throughput(dev, freqs, flops_per_sample, rate_factors):
    total = 0.0
    for c in dev.spec.clusters:
        f = freqs.get(c.name, 0.0)
        if f <= 0:
            continue
        gf = c.throughput_gflops(f) * dev.spec.cluster_efficiency(c, flops_per_sample)
        gf *= rate_factors.get(c.name, 1.0)
        total += gf
    return total


def _retired_power(dev, freqs, load, power_util):
    p = dev.spec.idle_power_w
    for cl in dev.spec.clusters:
        f = freqs.get(cl.name, 0.0)
        if f > 0 and load > 0:
            p += (
                dev.spec.dyn_power_coeff_w
                * cl.n_cores
                * cl.util_cap
                * load
                * power_util
                * f**3
            )
    return p


def _retired_run(dev, workload, record=True):
    """The per-size loop ``MobileDevice.run_workload`` ran before it
    became the one-size case of the shared loop."""
    power_util = dev.spec.power_utilisation(workload.flops_per_sample)
    total_samples = float(workload.n_samples * workload.epochs)
    flops_per_batch = workload.flops_per_sample * workload.batch_size
    times, temps, powers, batch_times = [], [], [], []
    freq_hist = {c.name: [] for c in dev.spec.clusters}
    online_hist = {c.name: [] for c in dev.spec.clusters}
    start_clock = dev.clock_s
    energy = 0.0
    done = 0.0
    flops_into_batch = 0.0
    batch_start = dev.clock_s
    dt = dev.control_dt

    def log(power, freqs):
        times.append(dev.clock_s - start_clock)
        temps.append(dev.thermal.temp_c)
        powers.append(power)
        for c in dev.spec.clusters:
            freq_hist[c.name].append(freqs.get(c.name, 0.0))
            online_hist[c.name].append(freqs.get(c.name, 0.0) > 0)

    while done < total_samples - 1e-9:
        freqs, rates = _retired_step_control(dev, 1.0)
        gflops = _retired_throughput(dev, freqs, workload.flops_per_sample, rates)
        if dev.jitter:
            gflops *= max(0.1, 1.0 + dev._rng.normal(0.0, dev.jitter))
        if gflops <= 0:
            power = dev.spec.idle_power_w
            energy += _retired_drain(dev.battery, power, dt)
            dev.thermal.update(power, dt, loaded=True)
            dev.clock_s += dt
            if record:
                log(power, freqs)
            continue
        rate = gflops * 1e9 / workload.flops_per_sample
        remaining = total_samples - done
        step_time = min(dt, remaining / rate)
        processed = rate * step_time
        done += processed
        if record:
            flops_step = processed * workload.flops_per_sample
            flops_into_batch += flops_step
            while flops_into_batch >= flops_per_batch - 1e-6:
                frac_over = (
                    (flops_into_batch - flops_per_batch) / flops_step
                    if flops_step > 0
                    else 0.0
                )
                t_done = dev.clock_s + step_time * (1.0 - frac_over)
                batch_times.append(t_done - batch_start)
                batch_start = t_done
                flops_into_batch -= flops_per_batch
        power = _retired_power(dev, freqs, 1.0, power_util)
        energy += _retired_drain(dev.battery, power, step_time)
        dev.thermal.update(power, step_time, loaded=True)
        dev.clock_s += step_time
        if record:
            log(power, freqs)

    return TrainingTrace(
        device=dev.spec.name,
        workload=workload.model_name,
        time_s=np.asarray(times),
        temp_c=np.asarray(temps),
        freq_ghz={k: np.asarray(v) for k, v in freq_hist.items()},
        online={k: np.asarray(v) for k, v in online_hist.items()},
        power_w=np.asarray(powers),
        batch_times=np.asarray(batch_times),
        total_time_s=dev.clock_s - start_clock,
        energy_j=energy,
    )


def _bits(a):
    a = np.asarray(a)
    return (a.dtype.str, a.shape, a.tobytes())


def _trace_bits(trace):
    return (
        trace.device,
        trace.workload,
        trace.total_time_s.hex(),
        trace.energy_j.hex(),
        *(_bits(getattr(trace, f)) for f in ("time_s", "temp_c", "power_w", "batch_times")),
        {k: _bits(v) for k, v in trace.freq_ghz.items()},
        {k: _bits(v) for k, v in trace.online.items()},
    )


def _state(dev):
    """Every bit of state a run moves."""
    return (
        dev.thermal.temp_c.hex(),
        tuple(dev.thermal._engaged),
        float(dev.thermal.load_time_s).hex(),
        float(dev.battery.remaining_j).hex(),
        {k: float(v).hex() for k, v in dev._freqs.items()},
        copy.deepcopy(dev.governor.__dict__),
        float(dev.clock_s).hex(),
        repr(dev._rng.bit_generator.state),
    )


def _twins(phone, governor, jitter, seed, heat):
    devs = [make_device(phone, governor=governor, seed=seed, jitter=jitter) for _ in "ab"]
    if heat is not None:
        temp_c, load_s, soc = heat
        for dev in devs:
            dev.battery.reset(soc)
            dev.thermal.temp_c = temp_c
            dev.thermal.load_time_s = load_s
            dev.thermal._refresh_trips()
    return devs


def _assert_runs_as_retired(new, old, workload, record, runs):
    with pytest.MonkeyPatch.context() as mp:
        for _ in range(runs):
            got = _trace_bits(new.run_workload(workload, record=record))
            mp.setattr(ClusterSpec, "quantize", _retired_quantize)
            want = _trace_bits(_retired_run(old, workload, record=record))
            mp.undo()
            assert got == want
            assert _state(new) == _state(old)


class TestTheLoopKeepsItsBits:
    @settings(max_examples=150, deadline=None)
    @given(
        phone=st.sampled_from(available_devices()),
        governor=st.sampled_from(GOVERNORS),
        jitter=st.sampled_from((0.0, 0.02)),
        seed=st.integers(0, 2**16),
        heat=st.none() | st.tuples(
            st.floats(25.0, 70.0), st.floats(0.0, 1500.0), st.floats(0.0005, 1.0)
        ),
        flops=st.sampled_from(MODEL_FLOPS) | st.floats(1e5, 1e9),
        n_samples=st.integers(0, 6000),
        epochs=st.integers(1, 2),
        batch=st.sampled_from((1, 20, 64)),
        record=st.booleans(),
        runs=st.integers(1, 2),
    )
    def test_run_workload_equals_the_retired_loop(
        self, phone, governor, jitter, seed, heat, flops, n_samples, epochs,
        batch, record, runs,
    ):
        new, old = _twins(phone, governor, jitter, seed, heat)
        workload = TrainingWorkload(
            flops, n_samples, batch_size=batch, epochs=epochs, model_name="m"
        )
        _assert_runs_as_retired(new, old, workload, record, runs)

    @pytest.mark.parametrize("record", [True, False])
    def test_the_6p_sustained_trip_engaging_mid_run(self, record):
        """40 s into the run the 6P's duty-cycle trip engages on top of
        its offline big cluster: one frequency tuple, two rate factors."""
        new, old = _twins("nexus6p", "interactive", 0.02, 3, (45.0, 1210.0, 1.0))
        workload = TrainingWorkload(MODEL_FLOPS[-1], 3000, model_name="lenet")
        _assert_runs_as_retired(new, old, workload, record, 1)
        assert new.thermal.load_time_s > 1250.0 and new.thermal._engaged[2]


def _cold(dev, workload, n):
    dev.reset()
    trace = dev.run_workload(dataclasses.replace(workload, n_samples=n), record=False)
    return trace.total_time_s.hex(), trace.energy_j.hex()


def _assert_cells_are_cold_runs(dev, workload, sizes):
    cells = dev.cold_runs(workload, sizes)
    assert [(c.total_time_s.hex(), c.energy_j.hex()) for c in cells] == [
        _cold(dev, workload, n) for n in sizes
    ]
    for cell in cells:
        assert cell.time_s.size == 0 and cell.batch_times.size == 0
        assert cell.device == dev.spec.name and cell.workload == workload.model_name


def _exact_spec(flops_half, battery=None):
    """One core at 2 GHz, 1 GFLOP/s per core-GHz and efficiency 0.5 at
    ``flops_half`` FLOPs per sample: exactly ``1e9 / flops_half``
    samples a second under the performance governor, no trips."""
    return DeviceSpec(
        name="exact",
        soc="x",
        clusters=(ClusterSpec("uni", 1, 0.5, 2.0, 1.0),),
        thermal=ThermalSpec(),
        battery=battery or BatterySpec(),
        flops_half=flops_half,
    )


class TestGridCellsAreColdRuns:
    @settings(max_examples=80, deadline=None)
    @given(
        phone=st.sampled_from(available_devices()),
        governor=st.sampled_from(GOVERNORS),
        flops=st.sampled_from(MODEL_FLOPS) | st.floats(1e5, 1e9),
        sizes=st.lists(st.integers(0, 15000), min_size=1, max_size=6),
        batch=st.sampled_from((1, 20)),
        epochs=st.integers(1, 2),
    )
    def test_every_cell_is_its_own_cold_run(
        self, phone, governor, flops, sizes, batch, epochs
    ):
        dev = make_device(phone, governor=governor, jitter=0.0)
        workload = TrainingWorkload(flops, 0, batch_size=batch, epochs=epochs)
        _assert_cells_are_cold_runs(dev, workload, sizes)

    def test_the_default_grid_and_the_6p_throttled_tail(self):
        """Size 1, duplicates, and the Nexus 6P past its trips (its
        little cluster duty-cycled, its big cluster offline)."""
        for phone in available_devices():
            dev = make_device(phone, jitter=0.0)
            workload = TrainingWorkload(MODEL_FLOPS[-1], 0)
            _assert_cells_are_cold_runs(
                dev, workload, (12000, 1, 500, 1500, 1, 3000, 6000, 12000, 20000)
            )
        dev = make_device("nexus6p", jitter=0.0)
        dev.run_workload(TrainingWorkload(MODEL_FLOPS[-1], 20000), record=False)
        assert dev.thermal.is_throttling()

    def test_step_boundaries_and_two_sizes_in_one_step(self, monkeypatch):
        """At 200 samples a second and 0.5 s steps, 300 samples end
        exactly on a step boundary (a full step its own run shares),
        and 310 and 340 both end inside the fourth step."""
        dev = MobileDevice(_exact_spec(5e6), governor=PerformanceGovernor(), jitter=0.0)
        workload = TrainingWorkload(5e6, 0)
        passes = [0]
        real = MobileDevice._run

        def counted(self, *args):
            passes[0] += 1
            return real(self, *args)

        monkeypatch.setattr(MobileDevice, "_run", counted)
        cells = dev.cold_runs(workload, (1000, 310, 100, 300, 340, 300))
        assert passes[0] == 1
        assert [c.total_time_s for c in cells] == [5.0, 1.55, 0.5, 1.5, 1.7, 1.5]
        _assert_cells_are_cold_runs(dev, workload, (1000, 310, 100, 300, 340, 300, 1))

    def test_a_size_its_partial_step_leaves_short_gets_its_own_run(
        self, monkeypatch
    ):
        """At 1e9 / 3 samples a second, ``rate * ((n - done) / rate)``
        can fall more than 1e-9 short of ``n``: that size's own run takes
        one more step, so the pass runs it cold on its own."""
        rate = 1e9 / 3.0
        short = [n for n in range(10**8, 10**8 + 400) if rate * (n / rate) < n - 1e-9]
        exact = [n for n in range(10**8, 10**8 + 400) if rate * (n / rate) == n]
        assert short and exact
        dev = MobileDevice(_exact_spec(3.0), governor=PerformanceGovernor(), jitter=0.0)
        workload = TrainingWorkload(3.0, 0)
        sizes = (short[0], exact[0], short[-1], 4 * 10**8)
        passes = [0]
        real = MobileDevice._run

        def counted(self, *args):
            passes[0] += 1
            return real(self, *args)

        monkeypatch.setattr(MobileDevice, "_run", counted)
        dev.cold_runs(workload, sizes)
        assert passes[0] == 3
        _assert_cells_are_cold_runs(dev, workload, sizes)

    def test_a_battery_that_empties_mid_pass(self):
        """A cell past the point the battery runs dry draws only what was
        left: the same clamp as ``BatteryState.drain``."""
        tiny = BatterySpec(capacity_mah=0.05, voltage_v=3.85)  # 0.693 J
        dev = MobileDevice(
            _exact_spec(5e6, tiny), governor=PerformanceGovernor(), jitter=0.0
        )
        workload = TrainingWorkload(5e6, 0)
        sizes = (1, 50, 150, 170, 230, 400)
        _assert_cells_are_cold_runs(dev, workload, sizes)
        cells = dev.cold_runs(workload, sizes)
        assert cells[0].energy_j < cells[-1].energy_j == tiny.energy_j

    def test_refuses_jitter_and_bad_sizes(self):
        workload = TrainingWorkload(1e7, 0)
        with pytest.raises(ValueError, match="jitter-free"):
            make_device("pixel2", jitter=0.02).cold_runs(workload, (500,))
        dev = make_device("pixel2", jitter=0.0)
        with pytest.raises(ValueError, match="at least one size"):
            dev.cold_runs(workload, ())
        with pytest.raises(ValueError, match="non-negative"):
            dev.cold_runs(workload, (500, -1))


class TestPredictionLeavesNoTrace:
    def test_prediction_is_the_run_and_moves_no_state(self):
        """With jitter the prediction must draw on a copy of the
        generator, and the governor's ramp state must stay put."""
        lenet = TrainingWorkload(MODEL_FLOPS[-1], 3000)
        dev = make_device("nexus6p", seed=1, jitter=0.02)
        twin = make_device("nexus6p", seed=1, jitter=0.02)
        before = _state(dev)
        predicted = dev.time_for_workload(lenet)
        assert _state(dev) == before
        actual = dev.run_workload(lenet, record=False).total_time_s
        assert predicted.hex() == actual.hex()
        assert actual.hex() == twin.run_workload(lenet, record=False).total_time_s.hex()
        assert _state(dev) == _state(twin)


@pytest.mark.parametrize(
    "cluster",
    [c for phone in available_devices() for c in build_spec(phone).clusters]
    + [ClusterSpec("uni", 2, 0.3, 2.35, 4.0, n_opp=n) for n in (0, 1, 2)],
    ids=repr,
)
def test_quantize_keeps_the_linear_scan_at_the_edges(cluster):
    """NaN, an empty table and values within 1e-9 of an OPP."""
    table = cluster.opp_table()
    probes = [math.nan, math.inf, -math.inf, -1.0, 1.0]
    probes += [f + d for f in table for d in (-2e-9, -1e-9, 0.0, 5e-10, 1e-9, 2e-9, 1e-6)]
    for freq in probes:
        assert cluster.quantize(freq) == _retired_quantize(cluster, freq), freq
    assert cluster.quantize(math.nan) == cluster.freq_max_ghz
