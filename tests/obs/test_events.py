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
        assert log.records == []

    def test_null_log_singleton_is_disabled(self):
        assert not NULL_LOG
        NULL_LOG.emit("anything", 0.0, "x")
        assert NULL_LOG.records == []

    def test_enabled_log_is_truthy_and_records(self):
        log = EventLog()
        assert log
        log.emit("dvs.switch", 2.0, "node1", from_mhz=59.0, to_mhz=103.2)
        assert len(log.records) == 1
        ev = log.records[0]
        assert ev.kind == "dvs.switch"
        assert ev.ts == 2.0
        assert ev.actor == "node1"
        assert ev.data == {"from_mhz": 59.0, "to_mhz": 103.2}

    def test_data_fields_may_share_parameter_names(self):
        # kind/ts/actor are positional-only, so a payload field may
        # reuse their names (record() always allowed it).
        log, telemetry = EventLog(), Telemetry()
        log.emit("link.xfer", 1.0, "node1", kind="x", ts=None, actor=2)
        telemetry.emit("link.xfer", 1.0, "node1", kind="x", ts=None, actor=2)
        for (ev,) in (log.records, telemetry.events.records):
            assert (ev.kind, ev.ts, ev.actor) == ("link.xfer", 1.0, "node1")
            assert ev.data == {"kind": "x", "ts": None, "actor": 2}

    def test_capacity_drops_and_counts(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.emit("k", float(i), "a")
        assert len(log.records) == 3
        assert log.dropped == 2

    def test_of_kind_and_counts(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        log.emit("b", 1.0, "x")
        log.emit("a", 2.0, "y")
        assert [e.ts for e in log.of_kind("a")] == [0.0, 2.0]
        assert log.counts_by_kind() == {"a": 2, "b": 1}
        assert log.actors() == ["x", "y"]

    def test_round_trip(self):
        log = EventLog(max_events=10)
        log.emit("a", 0.5, "x", n=1)
        log.emit("b", 1.5, "y", s="t")
        clone = EventLog.from_dict(log.as_dict())
        assert clone.records == log.records
        assert clone.max_events == log.max_events
        assert bool(clone) == bool(log)

    def test_clear(self):
        log = EventLog(max_events=1)
        log.emit("a", 0.0, "x")
        log.emit("a", 1.0, "x")
        log.clear()
        assert log.records == [] and log.dropped == 0


class TestLazyMaterialization:
    """Emissions buffer in columns until the log is read as objects."""

    def test_emit_defers_event_construction(self):
        log = EventLog()
        log.emit("a", 0.0, "x", n=1)
        assert log._records == []  # nothing materialized yet
        assert len(log) == 1

    def test_reading_records_materializes_in_order(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        log.emit("b", 1.0, "y", n=2)
        records = log.records
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
        assert log._records == []  # still in the columns

    def test_mixed_buffered_and_materialized_reads_stay_ordered(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        _ = log.records  # flush
        log.emit("b", 1.0, "y")
        assert [e.kind for e in log] == ["a", "b"]
        assert log.counts_by_kind() == {"a": 1, "b": 1}

    def test_capacity_counts_buffered_events(self):
        log = EventLog(max_events=2)
        for i in range(4):
            log.emit("k", float(i), "a")
        assert len(log) == 2
        assert log.dropped == 2

    def test_record_flushes_before_appending(self):
        log = EventLog()
        log.emit("a", 0.0, "x")
        log.record(TelemetryEvent("b", 1.0, "y"))
        assert [e.kind for e in log.records] == ["a", "b"]

    def test_taps_observe_real_events_online(self):
        class Tap:
            def __init__(self):
                self.seen = []

            def observe(self, event):
                self.seen.append(event)

        log = EventLog()
        log.emit("a", 0.0, "x")  # buffered before the tap attaches
        tap = log.attach(Tap())
        log.emit("b", 1.0, "y", n=3)
        assert len(tap.seen) == 1
        assert isinstance(tap.seen[0], TelemetryEvent)
        assert tap.seen[0].data == {"n": 3}
        assert [e.kind for e in log.records] == ["a", "b"]

    def test_serialization_flushes_the_buffer(self):
        import pickle

        log = EventLog()
        log.emit("a", 0.5, "x", n=1)
        clone = pickle.loads(pickle.dumps(log))
        assert clone.records == log.records
        assert EventLog.from_dict(log.as_dict()).records == log.records

    def test_pickle_round_trip_keeps_the_columns(self):
        import pickle

        log = EventLog(max_events=4)
        log.emit("a", 0.5, "x", n=1)
        _ = log.records  # a materialized prefix ...
        log.emit("b", 1.5, "y", s="t")  # ... then buffered events
        log.emit("c", 2.5, "")
        log.emit("d", 3.5, "z")
        log.emit("e", 4.5, "z")  # dropped
        log.seal(5.0)
        clone = pickle.loads(pickle.dumps(log))
        assert len(clone._records) == 1  # materialized nothing new
        assert clone._kinds == ["b", "c", "d", "log.truncated"]
        assert clone.digest() == log.digest()
        assert clone.as_dict() == log.as_dict()
        assert clone.records == log.records
        assert (clone.dropped, clone.enabled, clone.max_events) == (1, True, 4)

    def test_from_dict_fills_the_columns(self):
        log = EventLog()
        log.emit("a", 0.5, "x", n=1)
        log.record(TelemetryEvent("b", 1.0, "y", {"s": "t"}))
        clone = EventLog.from_dict(log.as_dict())
        assert clone._records == []
        assert clone.digest() == log.digest()
        assert clone.records == log.records

    def test_stream_does_not_cache_materialized_events(self):
        log = EventLog()
        log.emit("a", 0.0, "x", n=1)
        _ = log.records
        log.emit("b", 1.0, "y", n=2)
        streamed = list(log.stream())
        assert [(e.kind, e.data) for e in streamed] == [("a", {"n": 1}), ("b", {"n": 2})]
        assert len(log._records) == 1 and log._kinds == ["b"]
        assert streamed == log.records
