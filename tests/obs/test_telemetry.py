"""The Telemetry facade: delegation, JSON round trips, old cache payloads."""

from __future__ import annotations

import json

from repro.obs import Telemetry

#: ``Telemetry.as_dict()`` as an earlier release wrote it into cache
#: entries, with a (always empty) ``"spans"`` list beside the three
#: simulated-time collectors. Cache keys did not change when that key
#: went away, so such entries are still live and must still decode.
_PAYLOAD_WITH_SPANS_KEY = json.loads(
    '{"energy": {"entries": [["node1", "computation", "fft", 36.558, 0.6]]}, '
    '"events": {"dropped": 0, "enabled": true, "max_events": 1000000, '
    '"records": [{"actor": "host", "data": {"frame": 0}, "kind": "frame.emit", '
    '"ts": 0.0}, {"actor": "node1", "data": {"charge_fraction": '
    '0.3304333333333333, "current_ma": 60.93, "mode": "computation"}, '
    '"kind": "battery.draw", "ts": 60.0}]}, "metrics": {"counters": '
    '[{"name": "frames.completed", "type": "counter", "value": 1}], '
    '"gauges": [], "histograms": [{"base": 1e-06, "buckets": {"23": 1}, '
    '"count": 1, "max": 4.6, "min": 4.6, "name": "frame.latency_s", '
    '"total": 4.6, "type": "histogram"}]}, "spans": []}'
)


class TestTelemetryFacade:
    def test_emit_delegates_to_event_log(self):
        obs = Telemetry()
        obs.emit("frame.emit", 0.0, "host", frame=0)
        assert obs.events.counts_by_kind() == {"frame.emit": 1}

    def test_round_trip(self):
        obs = Telemetry()
        obs.emit("a", 1.0, "x", n=2)
        obs.metrics.counter("c").inc(4)
        obs.energy.add("node1", "computation", "fft", 60.93, 0.6)
        clone = Telemetry.from_dict(obs.as_dict())
        assert clone.as_dict() == obs.as_dict()

    def test_payload_holds_simulated_time_collectors_only(self):
        assert sorted(Telemetry().as_dict()) == ["energy", "events", "metrics"]


class TestOlderPayloads:
    def test_payload_with_spans_key_decodes(self):
        obs = Telemetry.from_dict(_PAYLOAD_WITH_SPANS_KEY)
        expected = {
            k: v for k, v in _PAYLOAD_WITH_SPANS_KEY.items() if k != "spans"
        }
        assert obs.as_dict() == expected
        assert obs.events.counts_by_kind() == {"battery.draw": 1, "frame.emit": 1}
        assert obs.metrics.counter("frames.completed").value == 1
