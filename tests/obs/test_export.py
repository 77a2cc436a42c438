"""Exporters: bit-identical JSONL round-trips and Chrome trace validity."""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.obs import EventLog, MetricsRegistry
from repro.obs.energy import EnergyLedger
from repro.obs.events import discharge_curves
from repro.obs.export import (
    EVENT_COLUMNS,
    LEDGER_COLUMNS,
    SEGMENT_COLUMNS,
    chrome_trace,
    events_to_rows,
    ledger_to_rows,
    metrics_to_rows,
    read_jsonl,
    segments_to_rows,
    write_chrome_trace,
    write_collapsed_stacks,
    write_jsonl,
)
from repro.sim.trace import Segment, TraceRecorder

from tests.obs.chrome_schema import expect_tracks, validate_chrome_trace


def _make_trace() -> TraceRecorder:
    trace = TraceRecorder()
    # Deliberately awkward floats: must survive JSON bit-identically.
    trace.add("node1", 0.0, 1.1, "recv", frequency_mhz=59.0,
              current_ma=32.7185, detail="from host")
    trace.add("node1", 1.1, 1.0999999999999998 + 0.6, "proc",
              frequency_mhz=103.2, current_ma=60.93, detail="fft f0")
    trace.add("node2", 0.3, 2.0 / 3.0, "send", frequency_mhz=59.0,
              current_ma=32.7185, detail="to host")
    return trace


def _make_draws() -> EventLog:
    """Two node1 state-of-charge samples, as the node emits them."""
    log = EventLog()
    log.emit("battery.draw", 0.0, "node1",
             charge_fraction=1.0, current_ma=32.7185, mode="communication")
    log.emit("battery.draw", 60.0, "node1",
             charge_fraction=0.9913 / 3.0, current_ma=60.93, mode="computation")
    return log


class TestJsonlRoundTrip:
    def test_segments_reload_bit_identical(self, tmp_path):
        trace = _make_trace()
        path = write_jsonl(tmp_path / "t.jsonl", trace=trace)
        bundle = read_jsonl(path)
        originals = trace.all_segments()
        assert bundle.segments == originals
        for a, b in zip(bundle.segments, originals):
            # Bit-identity, not approximation: exact float equality.
            assert a.start == b.start and a.end == b.end
            assert math.copysign(1.0, a.start) == math.copysign(1.0, b.start)

    def test_battery_samples_reload_bit_identical(self, tmp_path):
        draws = _make_draws()
        path = write_jsonl(tmp_path / "b.jsonl", events=draws)
        bundle = read_jsonl(path)
        assert bundle.events == list(draws)
        curve = discharge_curves(bundle.events)["node1"]
        assert curve == [(0.0, 1.0), (60.0, 0.9913 / 3.0)]  # exact
        assert "battery_sample" not in path.read_text()

    def test_full_bundle_round_trip(self, tmp_path):
        trace = _make_trace()
        events = _make_draws()
        events.emit("frame.emit", 0.0, "host", frame=0)
        events.emit("dvs.switch", 1.1, "node1", from_mhz=59.0, to_mhz=103.2)
        metrics = MetricsRegistry()
        metrics.counter("frames.completed").inc(1)
        metrics.histogram("frame.latency_s").observe(4.6)
        path = write_jsonl(
            tmp_path / "all.jsonl",
            trace=trace,
            events=events,
            metrics=metrics,
        )
        bundle = read_jsonl(path)
        assert bundle.segments == trace.all_segments()
        assert bundle.events == list(events)
        assert bundle.metrics is not None
        assert bundle.metrics.as_dict() == metrics.as_dict()

    def test_rewrite_is_byte_identical(self, tmp_path):
        """JSONL written from reloaded objects equals the original file."""
        trace = _make_trace()
        p1 = write_jsonl(tmp_path / "a.jsonl", trace=trace,
                         events=_make_draws())
        bundle = read_jsonl(p1)
        clone = TraceRecorder()
        for seg in bundle.segments:
            clone._segments.setdefault(seg.actor, []).append(seg)
        events = EventLog()
        for event in bundle.events:
            events.emit(event.kind, event.ts, event.actor, **event.data)
        p2 = write_jsonl(tmp_path / "b.jsonl", trace=clone, events=events)
        assert p1.read_bytes() == p2.read_bytes()

    def test_energy_ledger_round_trips(self, tmp_path):
        led = EnergyLedger()
        led.add("node1", "computation", "fft", 60.93, 0.6)
        led.add("node1", "communication", "link", 32.7185, 1.1)
        path = write_jsonl(tmp_path / "e.jsonl", energy=led)
        bundle = read_jsonl(path)
        assert bundle.energy is not None
        assert bundle.energy.as_dict() == led.as_dict()

    def test_empty_ledger_is_omitted(self, tmp_path):
        path = write_jsonl(tmp_path / "none.jsonl", energy=EnergyLedger())
        assert "energy_ledger" not in path.read_text()
        assert read_jsonl(path).energy is None

    def test_unknown_record_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery", "x": 1}\n')
        with pytest.raises(ValueError, match="mystery"):
            read_jsonl(path)


class TestRows:
    def test_segments_to_rows(self):
        rows = segments_to_rows(_make_trace())
        assert len(rows) == 3
        assert {"actor", "start", "end", "activity"} <= rows[0].keys()

    def test_metrics_to_rows(self):
        m = MetricsRegistry()
        m.counter("a").inc(2)
        rows = metrics_to_rows(m)
        assert rows == [{"metric": "a", "kind": "counter", "value": 2}]

    def test_events_to_rows_flattens_payload_to_json(self):
        log = EventLog()
        log.emit("frame.result", 4.6, "host", frame=3, latency_s=4.2)
        rows = events_to_rows(log)
        assert len(rows) == 1
        assert rows[0]["kind"] == "frame.result"
        assert tuple(rows[0].keys()) == EVENT_COLUMNS
        assert json.loads(rows[0]["data"]) == {"frame": 3, "latency_s": 4.2}

    def test_empty_log_yields_zero_rows_but_csv_keeps_header(self, tmp_path):
        """A zero-event run exports a header-only file, not an empty one."""
        from repro.obs.export import write_rows

        rows = events_to_rows(EventLog())
        assert rows == []
        path = write_rows(rows, tmp_path / "events.csv", columns=EVENT_COLUMNS)
        assert path.read_text().strip() == ",".join(EVENT_COLUMNS)

    def test_column_constants_match_row_shapes(self):
        assert tuple(segments_to_rows(_make_trace())[0].keys()) == SEGMENT_COLUMNS

    def test_ledger_to_rows(self):
        led = EnergyLedger()
        led.add("node2", "idle", "idle", 1.0, 2.0)
        led.add("node1", "computation", "fft", 3600.0, 1.0)
        rows = ledger_to_rows(led)
        assert [r["node"] for r in rows] == ["node1", "node2"]  # sorted
        assert tuple(rows[0].keys()) == LEDGER_COLUMNS
        assert rows[0]["charge_mah"] == 1.0


class TestCollapsedStacks:
    def test_write_one_line_per_stack(self, tmp_path):
        lines = [
            "frame0;host;comm-startup;host->node1 90000",
            "frame0;node1;compute;fft 600000",
        ]
        path = write_collapsed_stacks(tmp_path / "f.folded", lines)
        assert path.read_text().splitlines() == lines

    def test_empty_input_writes_empty_file(self, tmp_path):
        path = write_collapsed_stacks(tmp_path / "empty.folded", [])
        assert path.read_text() == ""


class TestChromeTrace:
    def test_schema_valid_with_per_actor_tracks(self, tmp_path):
        trace = _make_trace()
        events = _make_draws()
        events.emit("frame.emit", 0.0, "host", frame=0)
        payload = chrome_trace(trace=trace, events=events)
        assert validate_chrome_trace(payload) == []
        # One process: everything is in simulated time.
        assert {e["pid"] for e in payload["traceEvents"]} == {0}
        assert expect_tracks(payload, ["node1", "node2", "host"]) == []
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert [(e["name"], e["ts"], e["args"]["fraction"]) for e in counters] == [
            ("charge node1", 0.0, 1.0),
            ("charge node1", 60.0e6, 0.9913 / 3.0),
        ]

    def test_written_file_parses_and_validates(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", trace=_make_trace())
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"

    def test_written_bytes_match_streaming_encoder(self, tmp_path):
        # The writer encodes in one shot; the bytes must be those the
        # streaming json.dump wrote, on a real experiment-2 trace.
        from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
        from tests.conftest import tiny_battery_factory

        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
            trace=True,
            telemetry=True,
            max_frames=12,
        )
        path = write_chrome_trace(
            tmp_path / "t.json", trace=run.trace, events=run.obs.events, label="2"
        )
        streamed = io.StringIO()
        json.dump(
            chrome_trace(trace=run.trace, events=run.obs.events, label="2"),
            streamed,
            separators=(",", ":"),
        )
        streamed.write("\n")
        assert len(json.loads(path.read_text())["traceEvents"]) > 100
        assert path.read_bytes() == streamed.getvalue().encode("utf-8")

    def test_slices_are_microseconds(self):
        payload = chrome_trace(trace=_make_trace())
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        first = next(e for e in slices if e["args"]["detail"] == "from host")
        assert first["ts"] == 0.0
        assert first["dur"] == pytest.approx(1.1e6)
