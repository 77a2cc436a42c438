"""EventLog: null-sink semantics, bounded capacity, round-trips."""

from __future__ import annotations

import pytest

from repro.obs import NULL_LOG, EventLog, Telemetry, TelemetryEvent


class TestTelemetryEvent:
    def test_round_trip(self):
        ev = TelemetryEvent("link.xfer", 1.25, "node1", {"bytes": 7500})
        assert TelemetryEvent.from_dict(ev.as_dict()) == ev

    def test_frozen(self):
        ev = TelemetryEvent("k", 0.0, "a", {})
        with pytest.raises(AttributeError):
            ev.kind = "other"  # type: ignore[misc]


class TestEventLog:
    def test_disabled_log_is_falsy_and_records_nothing(self):
        log = EventLog(enabled=False)
        assert not log
        log.emit("link.xfer", 0.0, "node1")
        assert list(log) == []

    def test_null_log_singleton_is_disabled(self):
        assert not NULL_LOG
        NULL_LOG.emit("anything", 0.0, "x")
        assert list(NULL_LOG) == []

    def test_enabled_log_is_truthy_and_records(self):
        log = EventLog()
        assert log
        log.emit("dvs.switch", 2.0, "node1", from_mhz=59.0, to_mhz=103.2)
        (ev,) = log
        assert ev.kind == "dvs.switch"
        assert ev.ts == 2.0
        assert ev.actor == "node1"
        assert ev.data == {"from_mhz": 59.0, "to_mhz": 103.2}

    def test_data_fields_may_share_parameter_names(self):
        # kind/ts/actor are positional-only, so a payload field may
        # reuse their names.
        log, telemetry = EventLog(), Telemetry()
        log.emit("link.xfer", 1.0, "node1", kind="x", ts=None, actor=2)
        telemetry.emit("link.xfer", 1.0, "node1", kind="x", ts=None, actor=2)
        for (ev,) in (log, telemetry.events):
            assert (ev.kind, ev.ts, ev.actor) == ("link.xfer", 1.0, "node1")
            assert ev.data == {"kind": "x", "ts": None, "actor": 2}

    def test_capacity_drops_and_counts(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.emit("k", float(i), "a")
        assert len(list(log)) == 3
        assert log.dropped == 2

    def test_of_kind_and_counts(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        log.emit("b", 1.0, "x")
        log.emit("a", 2.0, "y")
        assert [e.ts for e in log.stream({"a"})] == [0.0, 2.0]
        assert log.counts_by_kind() == {"a": 2, "b": 1}
        assert log.actors() == ["x", "y"]

    def test_round_trip(self):
        log = EventLog(max_events=10)
        log.emit("a", 0.5, "x", n=1)
        log.emit("b", 1.5, "y", s="t")
        clone = EventLog.from_dict(log.as_dict())
        assert list(clone) == list(log)
        assert clone.max_events == log.max_events
        assert bool(clone) == bool(log)

    def test_clear(self):
        log = EventLog(max_events=1)
        log.emit("a", 0.0, "x")
        log.emit("a", 1.0, "x")
        log.clear()
        assert list(log) == [] and log.dropped == 0


class TestLazyMaterialization:
    """Emissions are stored as columns; events are built only when read."""

    def test_emit_defers_event_construction(self):
        log = EventLog()
        log.emit("a", 0.0, "x", n=1)
        assert (log._kinds, log._ts, log._actors, log._data) == (
            ["a"], [0.0], ["x"], [{"n": 1}])
        assert len(log) == 1

    def test_reading_records_materializes_in_order(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        log.emit("b", 1.0, "y", n=2)
        records = list(log)
        assert [type(e) for e in records] == [TelemetryEvent, TelemetryEvent]
        assert [(e.kind, e.ts, e.actor) for e in records] == [
            ("a", 0.0, "x"),
            ("b", 1.0, "y"),
        ]
        assert records[1].data == {"n": 2}

    def test_summaries_do_not_force_materialization(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        log.emit("b", 1.0, "y")
        log.emit("a", 2.0, "x")
        assert log.counts_by_kind() == {"a": 2, "b": 1}
        assert log.actors() == ["x", "y"]
        assert len(log) == 3

    def test_mixed_buffered_and_materialized_reads_stay_ordered(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        _ = list(log)
        log.emit("b", 1.0, "y")
        assert [e.kind for e in log] == ["a", "b"]
        assert log.counts_by_kind() == {"a": 1, "b": 1}

    def test_capacity_counts_buffered_events(self):
        log = EventLog(max_events=2)
        for i in range(4):
            log.emit("k", float(i), "a")
        assert len(log) == 2
        assert log.dropped == 2

    def test_serialization_flushes_the_buffer(self):
        import pickle

        log = EventLog()
        log.emit("a", 0.5, "x", n=1)
        clone = pickle.loads(pickle.dumps(log))
        assert list(clone) == list(log)
        assert list(EventLog.from_dict(log.as_dict())) == list(log)

    def test_pickle_round_trip_keeps_the_columns(self):
        import pickle

        log = EventLog(max_events=4)
        log.emit("a", 0.5, "x", n=1)
        log.emit("b", 1.5, "y", s="t")
        log.emit("c", 2.5, "")
        log.emit("d", 3.5, "z")
        log.emit("e", 4.5, "z")  # dropped
        log.seal(5.0)
        clone = pickle.loads(pickle.dumps(log))
        assert clone._kinds == ["a", "b", "c", "d", "log.truncated"]
        assert clone._data == log._data
        assert clone.digest() == log.digest()
        assert clone.as_dict() == log.as_dict()
        assert list(clone) == list(log)
        assert (clone.dropped, clone.enabled, clone.max_events) == (1, True, 4)

    def test_from_dict_fills_the_columns(self):
        log = EventLog()
        log.emit("a", 0.5, "x", n=1)
        log.emit("b", 1.0, "y", s="t")
        clone = EventLog.from_dict(log.as_dict())
        assert (clone._kinds, clone._data) == (["a", "b"], [{"n": 1}, {"s": "t"}])
        assert clone.digest() == log.digest()
        assert list(clone) == list(log)

    def test_stream_does_not_cache_materialized_events(self):
        log = EventLog()
        log.emit("a", 0.0, "x", n=1)
        log.emit("b", 1.0, "y", n=2)
        streamed = list(log.stream())
        assert [(e.kind, e.data) for e in streamed] == [("a", {"n": 1}), ("b", {"n": 2})]
        again = list(log)
        assert again == streamed
        assert all(a is not b for a, b in zip(again, streamed))  # rebuilt, not cached
