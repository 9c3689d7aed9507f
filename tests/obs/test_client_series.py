"""The five ``client``-labelled series are read from the energy ledger.

``repro_client_busy_seconds_total``, ``repro_client_rounds_total``,
``repro_client_energy_joules_total``, ``repro_battery_soc`` and
``repro_clients_dropped_total`` hold no state of their own: the
recorder writes a client once, to its :class:`~repro.obs.EnergyLedger`,
and these series are built from the ledger's rows when read. The
reference below is the fold they replace — one counter or gauge write
per client per event, the bulk forms' bodies inlined for the column
batches — and every export must match it: which series exist, their
values bit for bit, their order, the Prometheus text.

The golden digests at the bottom were computed on the commit before
the series were read from the ledger; regenerate (only when an export
is meant to change) with::

    PYTHONPATH=src python -m tests.obs.test_client_series
"""

import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.events import (
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    ClientsDispatched,
    ClientsFinished,
    EventBus,
    RoundCompleted,
)
from repro.engine.telemetry import JsonlSink
from repro.fleet import FleetRunner, UniformSampler, synthetic_fleet
from repro.obs import (
    MetricRegistry,
    ObsRecorder,
    catalog,
    render_prometheus,
    render_trace_json,
)

from ..engine.conftest import events_of

#: the families, in the registry's (name) order
FAMILIES = (
    catalog.BATTERY_SOC,
    catalog.CLIENT_BUSY_SECONDS_TOTAL,
    catalog.CLIENT_ENERGY_JOULES_TOTAL,
    catalog.CLIENT_ROUNDS_TOTAL,
    catalog.CLIENTS_DROPPED_TOTAL,
)


class ReferenceFold:
    """The per-client instruments as written instruments, fed the way
    the recorder fed them before they were read from its ledger."""

    def __init__(self):
        m = self.metrics = MetricRegistry()
        self.busy = m.counter(catalog.CLIENT_BUSY_SECONDS_TOTAL)
        self.rounds = m.counter(catalog.CLIENT_ROUNDS_TOTAL)
        self.energy = m.counter(catalog.CLIENT_ENERGY_JOULES_TOTAL)
        self.dropped = m.counter(catalog.CLIENTS_DROPPED_TOTAL)
        self.soc = m.gauge(catalog.BATTERY_SOC)

    def __call__(self, event):
        if isinstance(event, ClientsFinished):
            keys = list(zip(map(str, event.client_ids)))
            _inc_each(self.busy, keys, event.total_s)
            _inc_each(self.rounds, keys, [1.0] * len(keys))
            _inc_each(self.energy, keys, event.energy_j)
            self.soc._values.update(zip(keys, map(float, event.battery_soc)))
        elif isinstance(event, ClientFinished):
            client = event.client_id
            self.busy.inc(event.total_s, client=client)
            self.rounds.inc(client=client)
            if event.energy_j is not None:
                self.energy.inc(event.energy_j, client=client)
            if event.battery_soc is not None:
                self.soc.set(event.battery_soc, client=client)
        elif isinstance(event, ClientDropped):
            self.dropped.inc(client=event.client_id)


def _inc_each(counter, keys, amounts):
    """``Counter.inc_each`` as it was: ``inc`` per pair, keys given."""
    values = counter._values
    for key, amount in zip(keys, amounts):
        if amount < 0:
            raise ValueError("counters only go up")
        values[key] = values.get(key, 0.0) + amount


def _family_lines(text, spec):
    return [
        line
        for line in text.splitlines()
        if line.split("{")[0].split(" ")[0] == spec.name
        or line.startswith(f"# HELP {spec.name} ")
        or line.startswith(f"# TYPE {spec.name} ")
    ]


def _state(registry):
    """Each family's series, floats as bits, in the registry's order."""
    return {
        spec.name: [
            (labels, float(value).hex())
            for labels, value in registry.get(spec.name).series()
        ]
        for spec in FAMILIES
    }


def _fold_both(stream):
    recorder, reference = ObsRecorder(), ReferenceFold()
    for event in stream:
        recorder(event)
        reference(event)
    return recorder, reference


# -- which series exist ----------------------------------------------------


class TestPresence:
    def test_a_finish_without_joules_or_charge_counts_busy_and_rounds(self):
        recorder, _ = _fold_both(
            [ClientFinished(1, 4, 2.0, 1.0, 3.0, 3.0, None, None)]
        )
        state = _state(recorder.metrics)
        assert state[catalog.CLIENT_BUSY_SECONDS_TOTAL.name] == [
            (("4",), (3.0).hex())
        ]
        assert state[catalog.CLIENT_ROUNDS_TOTAL.name] == [
            (("4",), (1.0).hex())
        ]
        for spec in (
            catalog.CLIENT_ENERGY_JOULES_TOTAL,
            catalog.BATTERY_SOC,
            catalog.CLIENTS_DROPPED_TOTAL,
        ):
            assert state[spec.name] == []
        # the ledger has the row; it reported no Joules, so no series
        assert recorder.energy.clients[4].metered is False

    def test_zero_joules_reported_is_a_series(self):
        recorder, _ = _fold_both(
            [ClientFinished(1, 4, 2.0, 1.0, 3.0, 3.0, 0.0, None)]
        )
        assert _state(recorder.metrics)[
            catalog.CLIENT_ENERGY_JOULES_TOTAL.name
        ] == [(("4",), (0.0).hex())]

    def test_a_client_only_dropped_has_only_the_dropped_series(self):
        recorder, _ = _fold_both(
            [ClientDropped(1, 9, 5.0, 5.0), ClientDropped(2, 9, 5.0, 9.0)]
        )
        state = _state(recorder.metrics)
        assert state[catalog.CLIENTS_DROPPED_TOTAL.name] == [
            (("9",), (2.0).hex())
        ]
        assert all(
            state[spec.name] == []
            for spec in FAMILIES
            if spec is not catalog.CLIENTS_DROPPED_TOTAL
        )
        assert 9 in recorder.energy.clients

    def test_value_reads_like_the_written_instruments(self):
        recorder, reference = _fold_both(
            [
                ClientFinished(1, 2, 2.0, 1.0, 3.0, 3.0, 7.5, 0.25),
                ClientDropped(1, 3, 5.0, 5.0),
            ]
        )
        for spec in FAMILIES:
            for client in (2, 3, 11):
                got = recorder.metrics.get(spec.name).value(client=client)
                want = reference.metrics.get(spec.name).value(client=client)
                assert got == want
                assert type(got) is type(want)


# -- values and order: any stream ------------------------------------------

#: ids past 9, so string order ("10" < "2") is not numeric order
_ID = st.integers(0, 12)
_UP = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 0.2, 0.3, 1e16, 1.0]) | (
    st.floats(0.0, 1e4)
)
_ANY = st.sampled_from([-0.0, 0.0, 1e22, -3.5, 1.0]) | st.floats(-1e4, 1e4)


@st.composite
def _finished_batches(draw):
    ids = draw(st.lists(_ID, max_size=8))

    def column(cells):
        return tuple(draw(cells) for _ in ids)

    return ClientsFinished(
        round_idx=draw(st.integers(1, 3)),
        client_ids=tuple(ids),
        compute_s=column(_ANY),
        comm_s=column(_ANY),
        total_s=column(_UP),
        finish_s=column(_ANY),
        energy_j=column(_UP),
        battery_soc=column(_ANY),
    )


_STREAM = st.lists(
    st.one_of(
        _finished_batches(),
        events_of(ClientFinished, ints=_ID, floats=_UP),
        events_of(ClientDropped, ints=_ID, floats=_UP),
        events_of(ClientDispatched, ints=_ID, floats=_UP),
        events_of(RoundCompleted, ints=_ID, floats=_UP),
        st.lists(_ID, max_size=4).map(
            lambda ids: ClientsDispatched(1, tuple(ids), (500,) * len(ids), 0.0)
        ),
    ),
    max_size=14,
)


class TestValuesAndOrder:
    @settings(max_examples=300, deadline=None)
    @given(stream=_STREAM)
    @example(  # a drop ahead of the finish: the ledger row comes first
        stream=[
            ClientDropped(1, 10, 1.0, 1.0),
            ClientFinished(1, 2, 1.0, 1.0, 2.0, 2.0, 3.0, 0.5),
            ClientFinished(2, 10, 1.0, 1.0, 2.0, 4.0, 3.0, 0.4),
        ]
    )
    @example(  # left-to-right adds: 0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1
        stream=[
            ClientsFinished(
                1, (1, 1, 1), (0.0,) * 3, (0.0,) * 3, (0.1, 0.2, 0.3),
                (1.0,) * 3, (0.3, 0.2, 0.1), (0.9, -0.0, 0.0),
            )
        ]
    )
    def test_series_match_the_reference_fold(self, stream):
        recorder, reference = _fold_both(stream)
        assert _state(recorder.metrics) == _state(reference.metrics)
        got = render_prometheus(recorder.metrics)
        want = render_prometheus(reference.metrics)
        for spec in FAMILIES:
            assert _family_lines(got, spec) == _family_lines(want, spec)


# -- read-only -------------------------------------------------------------


class TestReadOnly:
    def test_writes_raise(self):
        metrics = ObsRecorder().metrics
        for spec in FAMILIES:
            metric = metrics.get(spec.name)
            write = metric.set if spec.kind == "gauge" else metric.inc
            with pytest.raises(TypeError, match="read from the energy ledger"):
                write(1.0, client=0)

    def test_the_registry_hands_out_the_views(self):
        recorder = ObsRecorder()
        assert recorder.metrics.counter(
            catalog.CLIENT_ROUNDS_TOTAL
        ) is recorder.metrics.get(catalog.CLIENT_ROUNDS_TOTAL.name)
        recorder(ClientFinished(1, 5, 1.0, 1.0, 2.0, 2.0, 1.0, 0.5))
        assert recorder.metrics.counter(catalog.CLIENT_ROUNDS_TOTAL).value(
            client=5
        ) == 1.0

    def test_a_second_recorder_on_one_registry_raises(self):
        shared = MetricRegistry()
        ObsRecorder(metrics=shared)
        with pytest.raises(ValueError, match="already instantiated"):
            ObsRecorder(metrics=shared)

    def test_a_registry_that_already_counts_clients_raises(self):
        shared = MetricRegistry()
        shared.counter(catalog.CLIENT_BUSY_SECONDS_TOTAL)
        with pytest.raises(ValueError, match="already instantiated"):
            ObsRecorder(metrics=shared)


# -- golden: a fleet-narrate shaped run ------------------------------------

#: sha256 of the capture (``solve_ms`` nulled), of ``render_prometheus``
#: without the ``repro_schedule_solve_ms`` series lines, and of
#: ``render_trace_json`` without ``solve_ms`` args
GOLDEN = {
    "capture": (
        "506a65040353c7d36da1da199c63261ee272df500c841d3e20de4274637b3c6a"
    ),
    "prometheus": (
        "7bc364f8e59c783ce584e6451cef1bad7404fcce871fe9aa7f4f1bb2cae8d081"
    ),
    "trace": (
        "e9b72a8e648a48da4f230d11957bfffb432987f87afc14b567f027c2244086e7"
    ),
}


def narrated_digests(rounds=40):
    """Digests of a seeded ``fleet-narrate`` shaped run: n = 10⁴,
    cohort 256, ``proportional``, a tracing recorder and a JSONL sink;
    the host-timed ``solve_ms`` removed from all three."""
    fleet = synthetic_fleet(10_000, seed=7)
    bus = EventBus()
    recorder = ObsRecorder(trace=True, run_name="narrate")
    stream = io.StringIO()
    bus.subscribe(recorder)
    bus.subscribe(JsonlSink(stream))
    FleetRunner(
        fleet,
        scheduler="proportional",
        sampler=UniformSampler(7),
        cohort_size=256,
        detail_threshold=256,
        bus=bus,
    ).run(rounds)
    lines = []
    for line in stream.getvalue().splitlines():
        payload = json.loads(line)
        if "solve_ms" in payload:
            payload["solve_ms"] = None
            line = json.dumps(payload)
        lines.append(line + "\n")
    prom = "".join(
        line + "\n"
        for line in render_prometheus(recorder.metrics).splitlines()
        if not line.startswith(catalog.SCHEDULE_SOLVE_MS.name)
    )
    roots = recorder.finish_spans()
    for root in roots:
        for span in root.walk():
            span.attrs.pop("solve_ms", None)
    texts = {
        "capture": "".join(lines),
        "prometheus": prom,
        "trace": render_trace_json(roots),
    }
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in texts.items()
    }


def test_a_narrated_run_exports_the_golden_bytes():
    assert narrated_digests() == GOLDEN


if __name__ == "__main__":
    print(json.dumps(narrated_digests(), indent=4))
