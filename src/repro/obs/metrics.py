"""Metric primitives and the catalog registry of :mod:`repro.obs`.

Three instrument shapes cover everything the paper's evaluation asks of
a run — counts (events, drops, cumulative Joules), levels (state of
charge, accuracy) and distributions (client times, round makespans):

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — a value that can move both ways;
* :class:`Histogram` — fixed-bucket distribution plus exact quantiles
  (raw observations, as packed float64, are all it keeps:
  buckets, ``_sum`` and ``_count`` are read from them; 8 bytes an
  observation makes simulation-scale cardinality cheap and keeps
  ``p95`` honest instead of bucket-interpolated).

Every instrument is described by a :class:`MetricSpec` registered in a
module-level catalog (:func:`register_metric`), mirroring the
:mod:`repro.sched.registry` idiom: the engine recorder, the exporters
and the docs all resolve metrics by their stable name, and
``tests/test_live_invariants.py`` holds ``docs/observability.md`` to
the catalog. Label sets are fixed per spec; time only ever enters through
the engine's *virtual* clock (callers pass event timestamps — nothing
in this package reads a wall clock).
"""

from __future__ import annotations

import re
import struct
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "MetricSpec",
    "register_metric",
    "metric_spec",
    "available_metrics",
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_ENERGY_BUCKETS",
    "DEFAULT_HOST_SECONDS_BUCKETS",
]

#: label-value tuple keying one time series inside an instrument
LabelValues = Tuple[str, ...]

#: round/client durations in virtual seconds
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)
#: per-round / per-client energy in Joules
DEFAULT_ENERGY_BUCKETS: Tuple[float, ...] = (
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)
#: host-cost durations in seconds (profiler phases, request handling)
DEFAULT_HOST_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")
_KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricSpec:
    """Immutable description of one catalog metric."""

    name: str
    kind: str
    help: str
    labels: Tuple[str, ...] = ()
    unit: str = ""
    buckets: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"metric name {self.name!r} must match {_NAME_RE.pattern}"
            )
        if self.kind not in _KINDS:
            raise ValueError(
                f"metric kind must be one of {_KINDS}, got {self.kind!r}"
            )
        for label in self.labels:
            if not _NAME_RE.match(label):
                raise ValueError(f"bad label name {label!r}")
        if self.buckets is not None:
            if self.kind != "histogram":
                raise ValueError("only histograms take buckets")
            if list(self.buckets) != sorted(self.buckets):
                raise ValueError("buckets must be sorted ascending")
            if len(set(self.buckets)) != len(self.buckets):
                raise ValueError("buckets must be distinct")


_CATALOG: Dict[str, MetricSpec] = {}


def register_metric(
    name: str,
    kind: str,
    help: str,
    labels: Tuple[str, ...] = (),
    unit: str = "",
    buckets: Optional[Tuple[float, ...]] = None,
) -> MetricSpec:
    """Add a metric to the catalog under its stable name.

    Re-registering an identical spec is a no-op (modules may be
    reloaded); a conflicting one is an error — names are an interface
    shared with dashboards and docs.
    """
    spec = MetricSpec(
        name=name,
        kind=kind,
        help=help,
        labels=tuple(labels),
        unit=unit,
        buckets=tuple(buckets) if buckets is not None else None,
    )
    existing = _CATALOG.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(
            f"metric {spec.name!r} already registered with a "
            "different spec"
        )
    _CATALOG[spec.name] = spec
    return spec


def metric_spec(name: str) -> MetricSpec:
    """Look up a catalog spec by name."""
    if name not in _CATALOG:
        raise KeyError(
            f"unknown metric {name!r}; available: "
            f"{', '.join(available_metrics())}"
        )
    return _CATALOG[name]


def available_metrics() -> Tuple[str, ...]:
    """All catalog metric names, sorted."""
    return tuple(sorted(_CATALOG))


class Metric:
    """Shared base: spec binding plus label validation.

    Each instrument kind has one keyed write (``_inc_at``, ``_set_at``,
    a histogram's ``_add_at``) that every write form reaches: the
    keyword form resolves its key per call, a :meth:`labels` child once.
    """

    #: the handle :meth:`labels` returns
    _child: ClassVar[type]

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    def _key(self, labels: Mapping[str, object]) -> LabelValues:
        """The series key of a label set: its values, as strings, in
        the spec's label order."""
        names = self.spec.labels
        if len(labels) == len(names):
            try:
                return tuple([str(labels[k]) for k in names])
            except KeyError:
                pass
        raise ValueError(
            f"metric {self.spec.name!r} takes labels "
            f"{self.spec.labels}, got {tuple(sorted(labels))}"
        )

    def labels(self, **values: object) -> Any:
        """A handle on the series of one label set, validated once here
        and then written without key work. Binding makes no series: an
        instrument keeps one only once a write through it succeeded."""
        return self._child(self, self._key(values))


class _Child:
    """One series of an instrument, its key resolved once (see
    :meth:`Metric.labels`); every write goes to the instrument's keyed
    write with that key."""

    __slots__ = ("_metric", "_at")

    def __init__(self, metric: Any, key: LabelValues) -> None:
        self._metric = metric
        self._at = key


class CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc_at(self._at, amount)


class GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        self._metric._set_at(self._at, value)


class HistogramChild(_Child):
    __slots__ = ()

    def observe(self, value: float) -> None:
        self._metric._observe_at(self._at, value)

    def observe_each(self, values: Sequence[float]) -> None:
        self._metric._observe_each_at(self._at, values)


def _real(value: Any) -> float:
    """``value`` as a float, read as ``array('d')`` reads a cell: through
    ``__float__`` or ``__index__`` (NumPy scalars too). ``float()``
    would also parse text; here text is not a number."""
    kind = type(value)
    if hasattr(kind, "__float__") or hasattr(kind, "__index__"):
        return float(value)
    raise TypeError(f"a gauge holds real numbers, not {kind.__name__}")


class Counter(Metric):
    """Monotonically increasing total, one series per label set."""

    _child = CounterChild

    def __init__(self, spec: MetricSpec) -> None:
        super().__init__(spec)
        self._values: Dict[LabelValues, float] = {}

    def _table(self) -> Dict[LabelValues, float]:
        """Every series' total by key: what the readers below read (a
        read-through subclass computes it instead of holding it)."""
        return self._values

    def _inc_at(self, key: LabelValues, amount: float) -> None:
        if not amount >= 0:  # NaN too: it would stick to the series
            raise ValueError("counters only go up, by a number >= 0")
        values = self._values
        values[key] = values.get(key, 0.0) + amount

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self._inc_at(self._key(labels), amount)

    def value(self, **labels: object) -> float:
        return self._table().get(self._key(labels), 0.0)

    def series(self) -> Iterator[Tuple[LabelValues, float]]:
        """(label values, total) pairs in deterministic order."""
        yield from sorted(self._table().items())

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._table().values())


class Gauge(Metric):
    """Last-write-wins level, one series per label set."""

    _child = GaugeChild

    def __init__(self, spec: MetricSpec) -> None:
        super().__init__(spec)
        self._values: Dict[LabelValues, float] = {}

    def _table(self) -> Dict[LabelValues, float]:
        """Every series' level by key (see :meth:`Counter._table`)."""
        return self._values

    def _set_at(self, key: LabelValues, value: float) -> None:
        self._values[key] = _real(value)

    def set(self, value: float, **labels: object) -> None:
        """Record a real number; anything else raises ``TypeError``."""
        self._set_at(self._key(labels), value)

    def value(self, **labels: object) -> Optional[float]:
        return self._table().get(self._key(labels))

    def series(self) -> Iterator[Tuple[LabelValues, float]]:
        yield from sorted(self._table().items())


class _HistogramSeries:
    """The exact observations of one label set, packed doubles in the
    order observed (``array('d')``: 8 bytes each, no float objects).
    Its cumulative bucket counts, ``_sum`` and ``_count`` are read from
    them, never kept."""

    __slots__ = ("_bounds", "observations")

    def __init__(self, bounds: np.ndarray) -> None:
        self._bounds = bounds
        self.observations: "array[float]" = array("d")

    @property
    def bucket_counts(self) -> List[int]:
        """Per bound, how many observations are within it
        (cumulative). NumPy orders NaN after every bound, so NaN is
        within none."""
        outside = len(self._bounds)
        cells = np.frombuffer(self.observations, dtype=np.float64)
        firsts = np.searchsorted(self._bounds, cells, side="left")
        within = np.bincount(firsts, minlength=outside + 1).cumsum()
        return within[:outside].tolist()

    @property
    def total(self) -> float:
        """The observations added strictly left to right: not ``sum``,
        which compensates from 3.12, nor a pairwise ``np.sum``."""
        return reduce(add, self.observations, 0.0)

    @property
    def count(self) -> int:
        return len(self.observations)


class Histogram(Metric):
    """Fixed-bucket distribution that keeps its raw observations.

    Buckets are cumulative upper bounds (Prometheus semantics), counted
    from the raw values when read; the same values back
    :meth:`quantile`, so dashboard percentiles are exact.
    """

    _child = HistogramChild

    def __init__(self, spec: MetricSpec) -> None:
        super().__init__(spec)
        self.buckets: Tuple[float, ...] = (
            spec.buckets if spec.buckets is not None else DEFAULT_TIME_BUCKETS
        )
        self._bounds = np.array(self.buckets, dtype=float)
        self._series: Dict[LabelValues, _HistogramSeries] = {}

    def _add_at(
        self,
        key: LabelValues,
        add: Callable[["array[float]", Any], None],
        cells: Any,
    ) -> None:
        """``add(observations, cells)`` on the series at ``key``."""
        series = self._series.get(key) or _HistogramSeries(self._bounds)
        add(series.observations, cells)  # raises before a new series is kept
        self._series[key] = series

    def _observe_at(self, key: LabelValues, value: float) -> None:
        self._add_at(key, array.append, value)

    def observe(self, value: float, **labels: object) -> None:
        """Record one real number; anything else raises ``TypeError``."""
        self._observe_at(self._key(labels), value)

    def _observe_each_at(
        self, key: LabelValues, values: Sequence[float]
    ) -> None:
        """One bulk add of the values packed at once (``struct`` packs a
        193-cell tuple ~4x faster than ``array.extend`` unboxes it)."""
        if not len(values):  # like no observe call: no series either
            return
        try:
            packed = struct.pack(f"{len(values)}d", *values)
        except struct.error as err:  # what observe raises for the cell
            raise TypeError("observations must be real numbers") from err
        self._add_at(key, array.frombytes, packed)

    def observe_each(
        self, values: Sequence[float], **labels: object
    ) -> None:
        """``observe(value, **labels)`` for each value, in order."""
        self._observe_each_at(self._key(labels), values)

    def count(self, **labels: object) -> int:
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(self._key(labels))
        return series.total if series is not None else 0.0

    def quantile(self, q: float, **labels: object) -> Optional[float]:
        """Exact q-quantile (nearest-rank) of one series, or ``None``
        when nothing was observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        series = self._series.get(self._key(labels))
        if series is None or not series.observations:
            return None
        ordered = sorted(series.observations)
        rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def series(self) -> Iterator[Tuple[LabelValues, _HistogramSeries]]:
        yield from sorted(self._series.items())


#: any concrete instrument
AnyMetric = Union[Counter, Gauge, Histogram]

_INSTRUMENTS: Dict[str, type] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricRegistry:
    """One run's live instruments, keyed by catalog name.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call instantiates the instrument from its spec, later calls return
    the same object — so the recorder, ad-hoc instrumentation and the
    exporters all share series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, AnyMetric] = {}

    def _get_or_create(
        self, spec: Union[str, MetricSpec], kind: str
    ) -> AnyMetric:
        resolved = metric_spec(spec) if isinstance(spec, str) else spec
        if resolved.kind != kind:
            raise TypeError(
                f"metric {resolved.name!r} is a {resolved.kind}, "
                f"not a {kind}"
            )
        existing = self._metrics.get(resolved.name)
        if existing is not None:
            if existing.spec != resolved:
                raise TypeError(
                    f"metric {resolved.name!r} already instantiated "
                    "with a different spec"
                )
            return existing
        metric_cls = _INSTRUMENTS[kind]
        metric: AnyMetric = metric_cls(resolved)
        self._metrics[resolved.name] = metric
        return metric

    def counter(self, spec: Union[str, MetricSpec]) -> Counter:
        metric = self._get_or_create(spec, "counter")
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, spec: Union[str, MetricSpec]) -> Gauge:
        metric = self._get_or_create(spec, "gauge")
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, spec: Union[str, MetricSpec]) -> Histogram:
        metric = self._get_or_create(spec, "histogram")
        assert isinstance(metric, Histogram)
        return metric

    def add(self, metric: AnyMetric) -> None:
        """Install an instrument built elsewhere (a read-through view).
        Its name must be new to this registry: an instrument nobody
        writes cannot be shared the way get-or-create shares one."""
        name = metric.name
        if name in self._metrics:
            raise ValueError(
                f"metric {name!r} already instantiated in this registry"
            )
        self._metrics[name] = metric

    def get(self, name: str) -> AnyMetric:
        if name not in self._metrics:
            raise KeyError(
                f"metric {name!r} not instantiated in this registry"
            )
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def metrics(self) -> Iterator[AnyMetric]:
        """Instruments in name order (export order)."""
        for name in self.names():
            yield self._metrics[name]
