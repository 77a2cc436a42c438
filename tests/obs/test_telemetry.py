"""The Telemetry facade: delegation, JSON round trips, old cache payloads."""

from __future__ import annotations

import json

import pytest

from repro.core.experiments import _run_payload, run_paper_suite
from repro.errors import PayloadFormatError
from repro.exec import ResultCache
from repro.obs import Telemetry

from tests.conftest import tiny_battery_factory

#: ``Telemetry.as_dict()`` as an earlier release wrote it into cache
#: entries: one JSON object per event under ``"records"``, and an
#: (always empty) ``"spans"`` list beside the three simulated-time
#: collectors. Such entries are stale: they must recompute, not decode.
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
    def test_payload_with_spans_key_is_a_cache_miss(self, tmp_path):
        with pytest.raises(PayloadFormatError):
            Telemetry.from_dict(_PAYLOAD_WITH_SPANS_KEY)
        kwargs = dict(battery_factory=tiny_battery_factory, max_frames=10,
                      telemetry=True)
        fresh = run_paper_suite(["2"], **kwargs)["2"]
        run_paper_suite(["2"], cache=ResultCache(tmp_path), **kwargs)
        (path,) = tmp_path.rglob("*.json")
        entry = json.loads(path.read_text())
        entry["payload"]["obs"] = _PAYLOAD_WITH_SPANS_KEY
        path.write_text(json.dumps(entry))

        cache = ResultCache(tmp_path)
        replay = run_paper_suite(["2"], cache=cache, **kwargs)["2"]
        assert (cache.hits, cache.misses) == (0, 1)
        assert _run_payload(replay) == _run_payload(fresh)
        run_paper_suite(["2"], cache=cache, **kwargs)
        assert (cache.hits, cache.misses) == (1, 1)  # rewritten
