"""The columnar fleet store: a struct-of-arrays client population.

The object-per-client substrate (:class:`~repro.device.device
.MobileDevice` + :class:`~repro.network.link.Link` per user) tops out
around a few hundred simulated devices — every round walks Python
objects. The ROADMAP north-star is a population of *millions*, and at
that scale the population itself must be columnar: one NumPy array per
attribute, vectorized operations over index arrays, and per-client
objects only as thin views.

:class:`FleetStore` is that single source of truth. Devices belong to
a small number of :class:`DeviceClass` es (the paper's four phones by
default); per-class constants (affine time/energy coefficients, link
bandwidths, idle power, battery capacity) live in tiny per-class arrays
and broadcast to the full population via ``class_id`` fancy indexing.
Mutable per-device state — battery charge, data size, liveness — is
one float64/int64/bool column each.

The device model is deliberately the *affine* regime of the simulator
(``t = a + b·samples``, the chord of a phone's fitted
:class:`~repro.profiling.profiler.Curve`, tabulated for the scheduler
by the testbeds' row builder). Each formula is written once, as a
column method; its scalar twin (``run_compute_one``, ``idle_one``,
``soc_one``, ...) is that method called at one row's int index. So the
engine over the object views returned by :meth:`FleetStore.as_devices`
and the vectorized :class:`~repro.fleet.round.RoundCore` over the same
store produce **bit-identical** per-client payloads and battery
columns by construction (``tests/fleet/test_equivalence.py``).

The passes a round makes over every row — :meth:`FleetStore
.fill_eligible`, the mask form of :meth:`FleetStore.idle` and the
uniform draw in :mod:`repro.fleet.sampling` — walk the columns in
``_BLOCK``-row slices through per-thread scratch, and from
``_POOL_BLOCKS`` blocks on, ``_run_spans`` cuts them into spans of whole
blocks: the caller runs the first, a per-process pool of one thread per
further usable core the rest (NumPy releases the GIL inside the
kernels). Rows are independent in the mask and the drain, and the draw
positions each span in the generator's stream, so every result is the
one-thread result bit for bit (``tests/fleet/test_parallel_passes.py``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "DeviceClass",
    "FleetStore",
    "FleetDevice",
    "FleetLink",
    "FleetTrace",
    "DEFAULT_CLASS_LINKS",
    "device_class_from_name",
    "default_device_classes",
    "synthetic_fleet",
]

#: rows per block of the passes a round makes over the whole fleet
#: (:meth:`FleetStore.fill_eligible`, the mask form of
#: :meth:`FleetStore.idle` and the uniform cohort draw in
#: :mod:`repro.fleet.sampling`). Their temporaries live in
#: scratch of this many rows, allocated once, so no pass hands a
#: multi-megabyte buffer back to the allocator for the next round to
#: fault in again (at n = 10⁶ the whole-column passes took ~1 800
#: fresh pages a round, the blocked ones 0.2). The size is measured: a
#: ``FleetRunner`` round at n = 10⁶, cohort 512, on a 2-core Xeon with
#: 2 MiB of L2 per core, took a median 8.6 / 8.2 / 7.9 / 8.4 / 9.0 ms
#: at 2¹⁴ / 2¹⁵ / 2¹⁶ / 2¹⁷ / 2¹⁸ rows a block, 12.5–13.8 ms unblocked.
_BLOCK = 1 << 16

_local = threading.local()


def _block_scratch() -> np.ndarray:
    """This thread's ``_BLOCK`` float64 scratch, allocated on first use.

    The population passes stream through it, one after the other: none
    calls another or yields inside its loop. It is one buffer for all,
    not one each, because the drain leaves it in cache for the next
    round's draw: on a ``fleet-lbap``-shaped round (n = 10⁵, same host)
    two separately owned buffers cost +1 to +6 % against the unblocked
    passes, one shared buffer −3 to +1 %. It is per thread because
    NumPy releases the GIL inside the kernels that fill it, so the pool
    runs spans of one pass on several threads at once.
    """
    scratch: Optional[np.ndarray] = getattr(_local, "scratch", None)
    if scratch is None:
        scratch = _local.scratch = np.empty(_BLOCK, dtype=np.float64)
    return scratch


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return os.cpu_count() or 1


#: threads a population pass runs on: the caller's and ``_POOL_SIZE - 1``
#: pool workers, one per core this process may run on
_POOL_SIZE = _usable_cores()

#: a pass goes to the pool once it is ``_POOL_BLOCKS`` blocks long, in
#: spans of at least ``_SPAN_BLOCKS`` whole blocks; shorter passes run
#: inline on the caller. Measured as the ``_BLOCK`` sweep was
#: (``FleetRunner`` rounds, cohort 512, same 2-core host), a round split
#: over two threads took, of the inline round's median, 1.08 at 3
#: blocks, 0.90 / 0.94 / 0.85 / 1.02 at 4 / 5 / 6 / 7 (0.98 and 0.86 on
#: a rerun at 5 and 7), then 0.78 / 0.73 / 0.72 / 0.75 / 0.64–0.73 at
#: 8 / 9 / 10 / 12 / 16: below 8 blocks the gain is inside the spread.
#: Handing a span to a worker and collecting it costs ~25 µs, a block
#: of the drain or the draw 80–170 µs, so a 4-block span keeps the
#: hand-off under ~8 % on a host with more cores than spans to fill.
_POOL_BLOCKS = 8
_SPAN_BLOCKS = 4

#: the worker pools by (pid, size): see :func:`_pool`
_pools: Dict[Tuple[int, int], ThreadPoolExecutor] = {}

_T = TypeVar("_T")

#: the rows a column method reads or writes: an index array, or one
#: row's int index (what the object views pass), which gives numpy
#: scalars back
_Rows = Union[int, np.ndarray]


def _spans(n: int) -> List[Tuple[int, int]]:
    """``[0, n)`` cut into contiguous spans of whole ``_BLOCK``s (the
    last block may be short): one span below the pool threshold, else
    at most one per thread."""
    blocks = -(-n // _BLOCK)
    if blocks < _POOL_BLOCKS:
        return [(0, n)]
    count = min(_POOL_SIZE, blocks // _SPAN_BLOCKS)
    edges = [i * blocks // count * _BLOCK for i in range(count)] + [n]
    return list(zip(edges[:-1], edges[1:]))


def _pool() -> ThreadPoolExecutor:
    """This process's workers, created on first use. Keyed by pid, so a
    forked child, which inherits the executor but none of its threads,
    builds its own instead of queueing work nobody will run; and by
    size, so a pool always has ``_POOL_SIZE - 1`` workers. Two threads
    racing here may each build one; ``setdefault`` keeps the first, and
    the other never started a thread. Imported here, not at the top: a
    process whose passes all run inline never loads the executor."""
    from concurrent.futures import ThreadPoolExecutor

    key = (os.getpid(), _POOL_SIZE)
    pool = _pools.get(key)
    if pool is None:
        pool = _pools.setdefault(
            key,
            ThreadPoolExecutor(
                _POOL_SIZE - 1, thread_name_prefix="fleet-pass"
            ),
        )
    return pool


def _run_spans(n: int, fn: Callable[[int, int], _T]) -> List[_T]:
    """``fn(lo, hi)`` over each of :func:`_spans` ``(n)``, results in
    span order. The caller's thread runs the first span and the pool the
    rest, so ``fn`` must only touch rows of its own span (NumPy releases
    the GIL inside the kernels; each thread has its own scratch). Every
    span has finished when this returns, even if one raised."""
    spans = _spans(n)
    if len(spans) == 1:
        return [fn(0, n)]
    from concurrent.futures import wait

    pool = _pool()
    rest = [pool.submit(fn, lo, hi) for lo, hi in spans[1:]]
    try:
        first = fn(*spans[0])
    finally:
        wait(rest)
    return [first, *(future.result() for future in rest)]


@dataclass(frozen=True)
class DeviceClass:
    """Per-class constants shared by every device of one phone model.

    Time and energy are affine in trained samples (the regime the
    profiler's linear fit captures); comm follows the
    :class:`~repro.network.link.Link` formula
    ``rtt/2 + mb·8/bandwidth`` per direction, jitter-free.
    """

    name: str
    #: seconds for a zero-sample workload (fit intercept, >= 0)
    time_base_s: float
    #: seconds per trained sample (fit slope, >= 0)
    time_per_sample_s: float
    #: Joules for a zero-sample workload (fit intercept, >= 0)
    energy_base_j: float
    #: Joules per trained sample (fit slope, >= 0)
    energy_per_sample_j: float
    #: full-charge battery energy
    capacity_j: float
    idle_power_w: float
    uplink_mbps: float
    downlink_mbps: float
    rtt_s: float
    #: link preset label ("wifi"/"lte"/...), informational
    link: str = "wifi"

    def __post_init__(self) -> None:
        # every check is written so that NaN fails it
        for fname in (
            "time_base_s",
            "time_per_sample_s",
            "energy_base_j",
            "energy_per_sample_j",
            "idle_power_w",
            "rtt_s",
        ):
            if not float(getattr(self, fname)) >= 0:
                raise ValueError(f"{fname} must be non-negative")
        if not self.capacity_j > 0:
            raise ValueError("capacity_j must be positive")
        if not (self.uplink_mbps > 0 and self.downlink_mbps > 0):
            raise ValueError("bandwidths must be positive")

    def signature(self) -> Tuple[object, ...]:
        """Hashable identity used in cost-matrix cache keys."""
        return (
            self.name,
            self.time_base_s,
            self.time_per_sample_s,
            self.energy_base_j,
            self.energy_per_sample_j,
            self.uplink_mbps,
            self.downlink_mbps,
            self.rtt_s,
        )


@dataclass(frozen=True)
class FleetTrace:
    """Result of one fleet workload run (mirrors ``TrainingTrace``'s
    fields the engine reads)."""

    total_time_s: float
    energy_j: float


class FleetStore:
    """Struct-of-arrays population of simulated devices.

    Parameters
    ----------
    classes:
        The device classes; ``class_id`` indexes into this tuple.
    class_id, data_size, battery_j, alive:
        Per-device columns (``battery_j`` defaults to full charge,
        ``alive`` to all-true). Columns are copied; the store owns its
        state.
    """

    def __init__(
        self,
        classes: Sequence[DeviceClass],
        class_id: np.ndarray,
        data_size: np.ndarray,
        battery_j: Optional[np.ndarray] = None,
        alive: Optional[np.ndarray] = None,
    ) -> None:
        if not classes:
            raise ValueError("need at least one device class")
        self.classes: Tuple[DeviceClass, ...] = tuple(classes)
        self.class_id = np.asarray(class_id, dtype=np.int32).copy()
        if self.class_id.ndim != 1 or self.class_id.size == 0:
            raise ValueError("class_id must be a non-empty 1-D array")
        if self.class_id.min() < 0 or self.class_id.max() >= len(
            self.classes
        ):
            raise ValueError("class_id out of range")
        n = int(self.class_id.shape[0])
        self.data_size = np.asarray(data_size, dtype=np.int64).copy()
        if self.data_size.shape != (n,):
            raise ValueError("data_size must align with class_id")
        if (self.data_size < 0).any():
            raise ValueError("data_size must be non-negative")

        # per-class constant columns (tiny; broadcast via class_id)
        def per_class(name: str) -> np.ndarray:
            return np.array([getattr(c, name) for c in self.classes], dtype=np.float64)

        self._time_base_s = per_class("time_base_s")
        self._time_per_sample_s = per_class("time_per_sample_s")
        self._energy_base_j = per_class("energy_base_j")
        self._energy_per_sample_j = per_class("energy_per_sample_j")
        self._idle_power_w = per_class("idle_power_w")
        self._uplink_mbps = per_class("uplink_mbps")
        self._downlink_mbps = per_class("downlink_mbps")
        self._rtt_s = per_class("rtt_s")

        #: full-charge energy per device (constant column)
        self.capacity_j: np.ndarray = per_class("capacity_j")[self.class_id]
        # idle power per device (constant column): what lets the
        # mask form of idle() run without a gather
        self._idle_power_row: np.ndarray = self._idle_power_w[
            self.class_id
        ]
        if battery_j is None:
            self.battery_j = self.capacity_j.copy()
        else:
            self.battery_j = np.asarray(
                battery_j, dtype=np.float64
            ).copy()
            if self.battery_j.shape != (n,):
                raise ValueError("battery_j must align with class_id")
            # written so that NaN fails it: a NaN charge is eligible
            # and drains NaN Joules into the round
            if not (
                (self.battery_j >= 0) & (self.battery_j <= self.capacity_j)
            ).all():
                raise ValueError(
                    "battery_j must lie in [0, class capacity]"
                )
        if alive is None:
            self.alive = np.ones(n, dtype=bool)
        else:
            self.alive = np.asarray(alive, dtype=bool).copy()
            if self.alive.shape != (n,):
                raise ValueError("alive must align with class_id")

    # -- identity ---------------------------------------------------------
    @property
    def n(self) -> int:
        """Population size."""
        return int(self.class_id.shape[0])

    def signature(self) -> Tuple[object, ...]:
        """Class-level identity (cost matrices depend only on this)."""
        return tuple(c.signature() for c in self.classes)

    @property
    def time_per_sample_s(self) -> np.ndarray:
        """Seconds per training sample of each class (index with
        ``class_id``)."""
        return self._time_per_sample_s

    def copy(self) -> "FleetStore":
        """Independent deep copy of all mutable columns."""
        return FleetStore(
            self.classes,
            self.class_id,
            self.data_size,
            battery_j=self.battery_j,
            alive=self.alive,
        )

    # -- battery ----------------------------------------------------------
    def soc(self, idx: Optional[_Rows] = None) -> np.ndarray:
        """State of charge (0..1) for ``idx`` (whole fleet if None)."""
        if idx is None:
            return self.battery_j / self.capacity_j
        return self.battery_j[idx] / self.capacity_j[idx]

    def soc_one(self, j: int) -> float:
        """:meth:`soc` of device ``j``, as a float."""
        return float(self.soc(j))

    def eligible_mask(self, min_soc: float = 0.0) -> np.ndarray:
        """Alive devices with data whose charge clears the participation
        floor, as a fresh mask with one entry per row:
        :meth:`fill_eligible` without the count.

        Matches the engine's legacy gate: a non-positive ``min_soc``
        disables the battery check entirely.
        """
        mask = np.empty(self.n, dtype=bool)
        self.fill_eligible(mask, min_soc)
        return mask

    def fill_eligible(self, out: np.ndarray, min_soc: float = 0.0) -> int:
        """Write ``alive & data_size > 0 [& soc >= min_soc]`` into the
        boolean ``out`` and return how many rows are ``True``.

        One pass over the columns, ``_BLOCK`` rows at a time, the soc of
        a block computed into the thread's scratch (the same division as
        :meth:`soc`, so the same bits) and the blocks split into spans
        over the worker pool: rows are independent, so the mask does not
        depend on the split. Nothing the size of the fleet is allocated.
        """
        n = self.n
        if out.shape != (n,) or out.dtype != np.bool_:
            raise ValueError(
                f"eligibility mask must be a boolean array of shape "
                f"({n},), got {out.dtype} {out.shape}"
            )
        gate_soc = not min_soc <= 0.0

        def fill(lo: int, hi: int) -> int:
            count = 0
            for a in range(lo, hi, _BLOCK):
                b = min(a + _BLOCK, hi)
                block = out[a:b]
                if gate_soc:
                    scratch = _block_scratch()
                    soc = scratch[: b - a]
                    np.divide(
                        self.battery_j[a:b], self.capacity_j[a:b], out=soc
                    )
                    np.greater_equal(soc, min_soc, out=block)
                    # the soc is spent: its bytes hold the data test
                    has_data = scratch.view(np.bool_)[: b - a]
                    np.greater(self.data_size[a:b], 0, out=has_data)
                    block &= has_data
                else:
                    np.greater(self.data_size[a:b], 0, out=block)
                block &= self.alive[a:b]
                count += int(np.count_nonzero(block))
            return count

        return sum(_run_spans(n, fill))

    # -- compute ----------------------------------------------------------
    def compute_time_s(
        self, idx: np.ndarray, samples: np.ndarray, epochs: int = 1
    ) -> np.ndarray:
        """Seconds for each device in ``idx`` to train ``samples``
        samples for ``epochs`` epochs (pure, no state change)."""
        cid = self.class_id[idx]
        x = np.asarray(samples, dtype=np.float64) * np.float64(epochs)
        return self._time_base_s[cid] + self._time_per_sample_s[cid] * x

    def run_compute(
        self, idx: _Rows, samples: Union[np.ndarray, int], epochs: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run workloads on every device in ``idx``: returns
        ``(seconds, joules_drained)`` arrays and drains the batteries
        (floored at empty, like :meth:`~repro.device.battery
        .BatteryState.drain`)."""
        cid = self.class_id[idx]
        x = np.asarray(samples, dtype=np.float64) * np.float64(epochs)
        t = self._time_base_s[cid] + self._time_per_sample_s[cid] * x
        e = (
            self._energy_base_j[cid]
            + self._energy_per_sample_j[cid] * x
        )
        drained = np.minimum(e, self.battery_j[idx])
        self.battery_j[idx] -= drained
        return t, drained

    def run_compute_one(
        self, j: int, samples: int, epochs: int = 1
    ) -> Tuple[float, float]:
        """:meth:`run_compute` at the scalar index ``j`` — the object-view
        path."""
        t, drained = self.run_compute(j, samples, epochs)
        return float(t), float(drained)

    # -- communication ----------------------------------------------------
    def download_time_s(self, idx: _Rows, wire_mb: float) -> np.ndarray:
        """Server->device transfer seconds (Link formula, jitter-free)."""
        cid = self.class_id[idx]
        return (
            self._rtt_s[cid] / 2.0
            + np.float64(wire_mb) * 8.0 / self._downlink_mbps[cid]
        )

    def upload_time_s(self, idx: _Rows, wire_mb: float) -> np.ndarray:
        """Device->server transfer seconds (Link formula, jitter-free)."""
        cid = self.class_id[idx]
        return (
            self._rtt_s[cid] / 2.0
            + np.float64(wire_mb) * 8.0 / self._uplink_mbps[cid]
        )

    def comm_time_s(self, idx: _Rows, wire_mb: float) -> np.ndarray:
        """One round's model pull + push seconds per device."""
        return self.download_time_s(idx, wire_mb) + self.upload_time_s(
            idx, wire_mb
        )

    def download_time_one(self, j: int, wire_mb: float) -> float:
        return float(self.download_time_s(j, wire_mb))

    def upload_time_one(self, j: int, wire_mb: float) -> float:
        return float(self.upload_time_s(j, wire_mb))

    def comm_time_one(self, j: int, wire_mb: float) -> float:
        return float(self.comm_time_s(j, wire_mb))

    # -- idle -------------------------------------------------------------
    def idle(self, idx: _Rows, seconds: Union[np.ndarray, float]) -> None:
        """Drain idle power, floored at empty, in one of two forms.

        Index form — ``idx`` an integer index array, ``seconds`` one
        wait per indexed device: gathers, drains and scatters those
        rows (the barrier waits of a cohort); an int ``idx`` and one
        wait are that form at one row (:meth:`idle_one`). Mask form —
        ``idx`` a boolean mask with one entry per row, ``seconds`` one
        scalar: every ``True`` row idles that long (a round's
        bystanders, nearly every row). It walks the columns in
        ``_BLOCK``-row slices with no index array — per slice the product into
        reused scratch, ``minimum`` with the battery, zero the
        masked-out rows, subtract — so it allocates nothing the size
        of the fleet, and splits the slices into spans over the worker
        pool; rows are independent, so the split changes no bit. Per
        row both forms are the same float64 product, ``minimum`` and
        subtraction, so they leave the same bits; masked-out rows
        subtract 0.0, which changes nothing. They share one name
        because instruments of the round path wrap ``idle`` on the
        instance (README, "Tests and benchmarks") and must keep seeing
        both. Negative or NaN seconds raise (NaN would poison every
        battery it touched); ``inf`` drains to empty, except at 0 W,
        which drains nothing however long. ``0 * inf`` is NaN, so an
        infinite wait takes a branch of its own that never forms it.
        """
        seconds = np.asarray(seconds, dtype=np.float64)
        # two reductions: as many passes over `seconds` as a comparison
        # and `.all()`, so finite waits pay nothing for the inf case
        if not seconds.min(initial=0.0) >= 0:  # NaN fails too
            raise ValueError("seconds must be non-negative")
        forever = seconds.max(initial=0.0) == np.inf
        if (
            isinstance(idx, np.ndarray)
            and idx.dtype == np.bool_
            and seconds.ndim == 0
        ):
            n = self.n
            if idx.shape != (n,):
                raise ValueError(
                    f"idle mask must have one entry per row: expected "
                    f"shape ({n},), got {idx.shape}"
                )

            if forever:
                # battery - min(inf, battery) is 0.0 where power is drawn
                self.battery_j[idx & (self._idle_power_row > 0.0)] = 0.0
                return

            def drain(lo: int, hi: int) -> None:
                scratch = _block_scratch()
                for a in range(lo, hi, _BLOCK):
                    b = min(a + _BLOCK, hi)
                    need = scratch[: b - a]
                    battery = self.battery_j[a:b]
                    np.multiply(self._idle_power_row[a:b], seconds, out=need)
                    np.minimum(need, battery, out=need)
                    need[~idx[a:b]] = 0.0
                    battery -= need

            _run_spans(n, drain)
            return
        power = self._idle_power_w[self.class_id[idx]]
        if forever:
            need: np.ndarray = np.zeros(np.broadcast(power, seconds).shape)
            np.multiply(power, seconds, out=need, where=power > 0.0)
        else:
            need = power * seconds
        drained = np.minimum(need, self.battery_j[idx])
        self.battery_j[idx] -= drained

    def idle_one(self, j: int, seconds: float) -> None:
        """:meth:`idle` at the scalar index ``j`` (the object-view path)."""
        self.idle(j, seconds)

    # -- object views -----------------------------------------------------
    def as_devices(self) -> List["FleetDevice"]:
        """Per-device views duck-typing the ``MobileDevice`` surface the
        engine touches (``run_workload`` / ``idle`` / ``battery.soc``).
        Views share this store's state — copy the store first to run
        two engines independently."""
        return [FleetDevice(self, j) for j in range(self.n)]

    def as_links(self) -> List["FleetLink"]:
        """Per-device views duck-typing :class:`~repro.network.link
        .Link` for :func:`~repro.network.transfer.round_comm_cost`."""
        return [FleetLink(self, j) for j in range(self.n)]


class _FleetBattery:
    """``device.battery``-shaped view over one store row."""

    __slots__ = ("_store", "_index")

    def __init__(self, store: FleetStore, index: int) -> None:
        self._store = store
        self._index = index

    @property
    def soc(self) -> float:
        return self._store.soc_one(self._index)


class FleetDevice:
    """One device of a :class:`FleetStore`, viewed as an object.

    Implements exactly the surface the :class:`~repro.engine.engine
    .RoundEngine` uses from a :class:`~repro.device.device
    .MobileDevice`; every operation is the store's column method at
    this view's row index, so running a fleet through these views or
    through the vectorized round core yields bit-identical payloads and
    state by construction.
    """

    __slots__ = ("_store", "_index", "battery")

    def __init__(self, store: FleetStore, index: int) -> None:
        self._store = store
        self._index = index
        self.battery = _FleetBattery(store, index)

    @property
    def index(self) -> int:
        return self._index

    @property
    def spec(self) -> DeviceClass:
        return self._store.classes[int(self._store.class_id[self._index])]

    def run_workload(
        self, workload: object, record: bool = False
    ) -> FleetTrace:
        n_samples = int(getattr(workload, "n_samples"))
        epochs = int(getattr(workload, "epochs", 1))
        t, e = self._store.run_compute_one(
            self._index, n_samples, epochs
        )
        return FleetTrace(total_time_s=t, energy_j=e)

    def idle(self, seconds: float) -> None:
        self._store.idle_one(self._index, seconds)


class FleetLink:
    """One device's link, viewed as a jitter-free ``Link``."""

    __slots__ = ("_store", "_index")

    def __init__(self, store: FleetStore, index: int) -> None:
        self._store = store
        self._index = index

    def download_time_s(self, size_mb: float) -> float:
        return self._store.download_time_one(self._index, size_mb)

    def upload_time_s(self, size_mb: float) -> float:
        return self._store.upload_time_one(self._index, size_mb)

    def round_trip_time_s(self, size_mb: float) -> float:
        return self._store.comm_time_one(self._index, size_mb)


# -- builders -------------------------------------------------------------

#: which link preset each paper phone uses by default (the paper's
#: testbeds mix campus WiFi and T-Mobile LTE)
DEFAULT_CLASS_LINKS: Dict[str, str] = {
    "mate10": "wifi",
    "nexus6": "wifi",
    "nexus6p": "lte",
    "pixel2": "lte",
}

#: sizes the affine coefficients are probed at (inside the profiler's
#: fitted range; two points identify an affine curve exactly)
_PROBE_SIZES: Tuple[float, float] = (1000.0, 9000.0)


def device_class_from_name(
    name: str,
    model: object = "lenet",
    link: str = "wifi",
    batch_size: int = 20,
) -> DeviceClass:
    """Build a :class:`DeviceClass` from a registered phone model.

    Extracts the affine time/energy coefficients from the calibrated
    simulator's cached curves (:func:`repro.sched.costs
    .cached_time_curves` / ``cached_energy_curves``) by probing two
    sizes, and takes battery/idle/link constants from the device spec
    and link presets.
    """
    from ..device.registry import build_spec
    from ..models.network import Sequential
    from ..models.zoo import MNIST_SHAPE, build_model
    from ..network.link import LINK_PRESETS
    from ..sched.costs import cached_energy_curves, cached_time_curves

    net = (
        model
        if isinstance(model, Sequential)
        else build_model(str(model), input_shape=MNIST_SHAPE)
    )
    (time_curve,) = cached_time_curves([name], net, batch_size=batch_size)
    (energy_curve,) = cached_energy_curves(
        [name], net, batch_size=batch_size
    )
    lo, hi = _PROBE_SIZES
    spec = build_spec(name)
    preset = LINK_PRESETS[link]

    def affine(curve: Callable[[float], float]) -> Tuple[float, float]:
        y_lo, y_hi = curve(lo), curve(hi)
        slope = max((float(y_hi) - float(y_lo)) / (hi - lo), 0.0)
        base = max(float(y_lo) - slope * lo, 0.0)
        return base, slope

    time_base_s, time_per_sample_s = affine(time_curve)
    energy_base_j, energy_per_sample_j = affine(energy_curve)
    return DeviceClass(
        name=name,
        time_base_s=time_base_s,
        time_per_sample_s=time_per_sample_s,
        energy_base_j=energy_base_j,
        energy_per_sample_j=energy_per_sample_j,
        capacity_j=spec.battery.energy_j,
        idle_power_w=spec.idle_power_w,
        uplink_mbps=float(preset["uplink_mbps"]),
        downlink_mbps=float(preset["downlink_mbps"]),
        rtt_s=float(preset["rtt_s"]),
        link=link,
    )


def default_device_classes(
    model: object = "lenet",
    batch_size: int = 20,
    links: Optional[Mapping[str, str]] = None,
) -> Tuple[DeviceClass, ...]:
    """The paper's four phones as fleet classes (name-sorted)."""
    link_of = dict(DEFAULT_CLASS_LINKS)
    if links:
        link_of.update(links)
    return tuple(
        device_class_from_name(
            name, model=model, link=link_of[name], batch_size=batch_size
        )
        for name in sorted(link_of)
    )


def synthetic_fleet(
    n: int,
    seed: int = 0,
    classes: Optional[Sequence[DeviceClass]] = None,
    model: object = "lenet",
    batch_size: int = 20,
    data_size_range: Tuple[int, int] = (200, 2000),
    soc_range: Tuple[float, float] = (0.25, 1.0),
) -> FleetStore:
    """Seeded random population over the given (or default) classes.

    Class membership, local data size and initial charge are drawn
    from one ``default_rng(seed)`` stream, so a given ``(n, seed,
    classes)`` triple always yields the same fleet.
    """
    if n <= 0:
        raise ValueError("fleet size must be positive")
    lo, hi = data_size_range
    if lo < 0 or hi < lo:
        raise ValueError("invalid data_size_range")
    soc_lo, soc_hi = soc_range
    if not (0.0 <= soc_lo <= soc_hi <= 1.0):
        raise ValueError("soc_range must lie within [0, 1]")
    cls = (
        tuple(classes)
        if classes is not None
        else default_device_classes(model=model, batch_size=batch_size)
    )
    rng = np.random.default_rng(seed)
    class_id = rng.integers(0, len(cls), size=n, dtype=np.int32)
    data_size = rng.integers(lo, hi + 1, size=n, dtype=np.int64)
    capacity = np.array([c.capacity_j for c in cls], dtype=np.float64)[
        class_id
    ]
    battery_j = capacity * rng.uniform(soc_lo, soc_hi, size=n)
    return FleetStore(cls, class_id, data_size, battery_j=battery_j)
