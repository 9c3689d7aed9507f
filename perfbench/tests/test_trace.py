"""Span arithmetic and wrapper hygiene."""

import types

import pytest

from perfbench.trace import Tracer, TracingBus, installed, self_times
from repro.engine.events import RoundCompleted


def test_self_time_of_nested_spans():
    # root 0..10; child 1..4 with grandchild 2..3; child 6..9
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [4.0, 2.0, 1.0, 3.0]


def test_self_time_takes_the_union_of_overlapping_children():
    # children 1..5 and 3..7 overlap on 3..5: they cover 6, not 8
    parent = [-1, 0, 0]
    start = [0.0, 1.0, 3.0]
    end = [10.0, 5.0, 7.0]
    assert self_times(parent, start, end)[0] == 4.0


def test_self_time_clips_children_to_their_parent_and_ignores_order():
    # listed out of start order; the second child runs past the parent
    parent = [-1, 0, 0, 0]
    start = [0.0, 8.0, 1.0, 2.0]
    end = [10.0, 12.0, 2.0, 2.0]  # the last child is empty
    assert self_times(parent, start, end)[0] == 10.0 - (2.0 + 1.0)


def test_self_times_sum_to_the_root_duration():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    total = tracer.end[0] - tracer.start[0]
    assert sum(self_times(tracer.parent, tracer.start, tracer.end)) == (
        pytest.approx(total, rel=1e-9)
    )
    assert tracer.parent == [-1, 0, 1, 0]
    assert [tracer.names[n] for n in tracer.name] == ["root", "a", "b", "a"]


def test_spans_carry_the_round_id_and_counts_stay_inside_rounds():
    tracer = Tracer()
    tracer.count("work", 5)  # outside any round: not counted
    with tracer.span("setup"):
        pass
    tracer.round_id = 3
    with tracer.span("round"):
        tracer.count("work", 2)
    tracer.round_id = 0
    assert tracer.round == [0, 3]
    assert tracer.counts == {"work": 2.0}
    by = tracer.by_name(tracer.self_ms(), rounds_only=True)
    assert list(by) == ["round"] and by["round"][0] == 1


def test_wrap_records_a_span_even_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.end[0] >= tracer.start[0] > 0.0
    assert tracer._stack == []


def test_installed_restores_instance_methods_and_module_globals():
    class Thing:
        def method(self):
            return "real"

    thing = Thing()
    thing.own = "kept"
    module = types.ModuleType("fake")
    module.func = original = lambda: "real"
    with installed(
        [
            (thing, "method", lambda: "patched"),
            (thing, "own", "patched"),
            (module, "func", lambda: "patched"),
        ]
    ):
        assert thing.method() == module.func() == thing.own == "patched"
    assert thing.method() == "real" and "method" not in vars(thing)
    assert thing.own == "kept"
    assert module.func is original


def test_installed_restores_when_the_block_raises():
    module = types.ModuleType("fake")
    module.func = original = lambda: "real"
    with pytest.raises(RuntimeError):
        with installed([(module, "func", lambda: "patched")]):
            raise RuntimeError
    assert module.func is original


def test_tracing_bus_spans_emits_and_listeners():
    tracer = Tracer()
    bus = TracingBus(tracer)
    seen = []
    bus.subscribe(seen.append)
    event = RoundCompleted(
        round_idx=1, makespan_s=1.0, mean_time_s=1.0,
        participant_count=1, accuracy=None, time_s=1.0,
    )
    bus.emit(event)
    assert seen == [event]
    assert [tracer.names[n] for n in tracer.name] == [
        "engine.events.emit", "perfbench.listener",
    ]
    assert tracer.parent == [-1, 0]
