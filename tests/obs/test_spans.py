"""Span tree construction: live fold, replay fold, edge cases."""

import pytest

from repro.obs.spans import Span, SpanBuilder, spans_from_events


def _span_index(roots):
    """(category, name) -> span for every span in the forest."""
    out = {}
    for root in roots:
        for span in root.walk():
            out[(span.category, span.name)] = span
    return out


class TestReplay:
    def test_hierarchy_run_round_client(self, synthetic_dicts):
        (run,) = spans_from_events(synthetic_dicts, run_name="test-run")
        assert run.category == "run"
        assert run.name == "test-run"
        assert run.start_s == pytest.approx(0.0)
        assert run.end_s == pytest.approx(16.0)
        rounds = [s for s in run.children if s.category == "round"]
        assert [r.attrs["round"] for r in rounds] == [1, 2]
        r1, r2 = rounds
        assert r1.end_s == pytest.approx(9.0)
        assert r1.attrs["makespan_s"] == pytest.approx(9.0)
        assert r2.start_s == pytest.approx(9.0)
        assert r2.end_s == pytest.approx(16.0)

    def test_client_span_intervals_and_attrs(self, synthetic_dicts):
        (run,) = spans_from_events(synthetic_dicts)
        r1 = next(
            s
            for s in run.children
            if s.category == "round" and s.attrs["round"] == 1
        )
        c0 = next(
            s
            for s in r1.children
            if s.category == "client" and s.attrs["client"] == 0
        )
        # round 1's client 0: dispatched at 0, finished at 4
        assert c0.start_s == pytest.approx(0.0)
        assert c0.end_s == pytest.approx(4.0)
        assert c0.attrs["compute_s"] == pytest.approx(3.0)
        assert c0.attrs["energy_j"] == pytest.approx(30.0)
        assert c0.attrs["battery_soc"] == pytest.approx(0.95)

    def test_dropped_client_is_marked(self, synthetic_dicts):
        roots = spans_from_events(synthetic_dicts)
        (run,) = roots
        r1 = run.children[0] if run.children[0].category == "round" else None
        dropped = [
            s
            for s in run.walk()
            if s.category == "client" and s.attrs.get("dropped")
        ]
        assert len(dropped) == 1
        assert dropped[0].attrs["client"] == 1
        assert dropped[0].end_s == pytest.approx(8.0)
        assert r1 is not None and dropped[0] in r1.children

    def test_instant_spans_for_sched_and_aggregate(self, synthetic_dicts):
        roots = spans_from_events(synthetic_dicts)
        spans = _span_index(roots)
        sched = spans[("sched", "schedule [olar]")]
        assert sched.duration_s == pytest.approx(0.0)
        aggs = [
            s
            for root in roots
            for s in root.walk()
            if s.category == "aggregate"
        ]
        assert [a.attrs["participants"] for a in aggs] == [1, 2]

    def test_unknown_kinds_are_ignored(self, synthetic_dicts):
        noisy = (
            [{"event": "telemetry_meta", "schema_version": 2}]
            + synthetic_dicts
            + [{"event": "future_kind", "time_s": 99.0}]
        )
        assert len(spans_from_events(noisy)) == 1


class TestLiveEquivalence:
    def test_live_and_replay_agree(self, synthetic_events, synthetic_dicts):
        live = SpanBuilder("x")
        for event in synthetic_dicts:
            live.add(event)
        replay = spans_from_events(synthetic_dicts, run_name="x")

        def shape(roots):
            return [
                (s.category, s.name, round(s.start_s, 9), round(s.end_s, 9))
                for root in roots
                for s in root.walk()
            ]

        assert shape(live.finish()) == shape(replay)


class TestEdgeCases:
    def test_empty_stream_yields_no_spans(self):
        assert SpanBuilder().finish() == []

    def test_finish_is_idempotent(self, synthetic_dicts):
        builder = SpanBuilder()
        for event in synthetic_dicts:
            builder.add(event)
        assert builder.finish() == builder.finish()

    def test_add_after_finish_raises(self, synthetic_dicts):
        builder = SpanBuilder()
        builder.add(synthetic_dicts[0])
        builder.finish()
        with pytest.raises(RuntimeError, match="finished"):
            builder.add(synthetic_dicts[1])

    def test_finish_without_round_completed_closes_open_spans(self):
        """Async-style stream: no barrier events at all."""
        builder = SpanBuilder()
        builder.add(
            {
                "event": "client_dispatched",
                "round_idx": 0,
                "client_id": 3,
                "n_samples": 10,
                "time_s": 1.0,
            }
        )
        builder.add(
            {
                "event": "client_dispatched",
                "round_idx": 0,
                "client_id": 4,
                "n_samples": 10,
                "time_s": 2.0,
            }
        )
        builder.add(
            {
                "event": "client_finished",
                "round_idx": 0,
                "client_id": 3,
                "compute_s": 1.0,
                "comm_s": 0.5,
                "total_s": 1.5,
                "time_s": 2.5,
            }
        )
        (run,) = builder.finish()
        spans = {s.name: s for s in run.walk() if s.category == "client"}
        assert spans["client 3"].end_s == pytest.approx(2.5)
        # client 4 never finished: closed at the last seen time, marked
        assert spans["client 4"].end_s == pytest.approx(2.5)
        assert spans["client 4"].attrs.get("unclosed") is True

    def test_finish_without_dispatch_synthesises_interval(self):
        """Trimmed captures still produce client spans."""
        roots = spans_from_events(
            [
                {
                    "event": "client_finished",
                    "round_idx": 2,
                    "client_id": 7,
                    "compute_s": 2.0,
                    "comm_s": 1.0,
                    "total_s": 3.0,
                    "time_s": 10.0,
                }
            ]
        )
        spans = _span_index(roots)
        c7 = spans[("client", "client 7")]
        assert c7.start_s == pytest.approx(7.0)
        assert c7.end_s == pytest.approx(10.0)

    def test_walk_is_preorder(self):
        root = Span("a", "run", 0.0, 1.0)
        child = Span("b", "round", 0.0, 1.0)
        grand = Span("c", "client", 0.0, 1.0)
        child.children.append(grand)
        root.children.append(child)
        assert [s.name for s in root.walk()] == ["a", "b", "c"]


class TestMembershipSpans:
    """Regression: between-round churn hangs off the run, not a round."""

    def _events(self):
        return [
            {
                "event": "client_dispatched", "round_idx": 1,
                "client_id": 0, "n_samples": 100, "time_s": 0.0,
            },
            {
                "event": "client_finished", "round_idx": 1,
                "client_id": 0, "compute_s": 3.0, "comm_s": 1.0,
                "total_s": 4.0, "time_s": 4.0,
            },
            {
                "event": "round_completed", "round_idx": 1,
                "makespan_s": 4.0, "mean_time_s": 4.0,
                "participant_count": 1, "time_s": 4.0,
            },
            # churn strictly between round 1 and round 2
            {
                "event": "device_joined", "device_id": "d7",
                "client_id": 7, "time_s": 5.0,
            },
            {
                "event": "device_lost", "device_id": "d0",
                "client_id": 0, "reason": "timeout", "time_s": 6.0,
            },
            {
                "event": "client_dispatched", "round_idx": 2,
                "client_id": 7, "n_samples": 100, "time_s": 7.0,
            },
            {
                "event": "round_completed", "round_idx": 2,
                "makespan_s": 2.0, "mean_time_s": 2.0,
                "participant_count": 1, "time_s": 9.0,
            },
        ]

    def test_membership_instants_are_run_children(self):
        (run,) = spans_from_events(self._events(), run_name="serve")
        membership = [
            s for s in run.children if s.category == "membership"
        ]
        assert [s.name for s in membership] == [
            "device_joined [d7]",
            "device_lost [d0]",
        ]
        # instants: zero duration, stamped at the event time
        for span in membership:
            assert span.start_s == span.end_s
        assert membership[0].attrs == {"device_id": "d7", "client": 7}
        assert membership[1].attrs["reason"] == "timeout"
        # and *no* round span claims them
        for round_span in run.children:
            if round_span.category == "round":
                assert all(
                    s.category != "membership"
                    for s in round_span.walk()
                )

    def test_membership_does_not_distort_round_intervals(self):
        (run,) = spans_from_events(self._events())
        rounds = [s for s in run.children if s.category == "round"]
        assert [r.attrs["round"] for r in rounds] == [1, 2]
        r1, r2 = rounds
        # round 1 closed at its completion time; the 5.0s/6.0s churn
        # instants did not stretch it
        assert r1.end_s == pytest.approx(4.0)
        assert r2.end_s == pytest.approx(9.0)
        # but the run itself spans the churn
        assert run.start_s <= 0.0 and run.end_s >= 9.0

    def test_live_fold_matches_replay(self):
        from repro.obs.spans import SpanBuilder

        builder = SpanBuilder(run_name="serve")
        for event in self._events():
            builder.add(event)
        (run,) = builder.finish()
        membership = [
            s for s in run.children if s.category == "membership"
        ]
        assert len(membership) == 2


class TestRedispatch:
    def test_a_redispatched_client_closes_its_displaced_span(self):
        """Regression: a serve round cancelled at the ``dispatched``
        checkpoint leaves its clients' spans open; dispatching one of
        them again overwrote the open-span entry, so the first span
        stayed at ``start_s == end_s`` without an ``unclosed`` mark and
        ``finish()`` never saw it."""
        from repro.engine.events import (
            ClientDispatched,
            ClientFinished,
            RoundCompleted,
        )

        builder = SpanBuilder()
        for event in (
            ClientDispatched(1, 3, 500, 0.0),
            ClientDispatched(2, 3, 500, 10.0),
            ClientFinished(2, 3, 2.0, 1.0, 3.0, 13.0),
            RoundCompleted(2, 3.0, 3.0, 1, None, 13.0),
        ):
            builder.fold(event)
        (run,) = builder.finish()
        first, second = [s for s in run.walk() if s.name == "client 3"]
        assert (first.start_s, first.end_s) == (0.0, 10.0)
        assert first.attrs == {
            "client": 3, "n_samples": 500, "unclosed": True
        }
        assert (second.start_s, second.end_s) == (10.0, 13.0)
        assert "unclosed" not in second.attrs
