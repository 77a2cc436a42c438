"""Event-log truncation: seal() semantics and inconclusive verdicts."""

from __future__ import annotations

import pytest

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
from repro.obs import Telemetry
from repro.obs.checks import (
    FrameDeadlineMonitor,
    paper_monitors,
    replay,
)
from repro.obs.events import EventLog, TelemetryEvent

from tests.conftest import tiny_battery_factory


def _fill(log: EventLog, n: int) -> None:
    for i in range(n):
        log.emit("frame.emit", float(i), "host", frame=i)


class TestSeal:
    def test_noop_without_drops(self):
        log = EventLog(max_events=10)
        _fill(log, 5)
        log.seal(5.0)
        assert log.dropped == 0
        assert all(e.kind != "log.truncated" for e in log)

    def test_terminal_record_carries_drop_count(self):
        log = EventLog(max_events=4)
        _fill(log, 10)
        assert log.dropped == 6
        log.seal(10.0)
        # The marker bypasses the cap: 4 stored + 1 terminal record.
        assert len(log) == 5
        *_, tail = log
        assert tail.kind == "log.truncated"
        assert tail.ts == 10.0
        assert tail.data == {"dropped": 6}

    def test_reseal_refreshes_in_place(self):
        log = EventLog(max_events=2)
        _fill(log, 5)
        log.seal(5.0)
        log.emit("frame.emit", 6.0, "host", frame=6)  # dropped too
        log.seal(6.0)
        tails = list(log.stream({"log.truncated"}))
        assert len(tails) == 1
        assert tails[0].ts == 6.0
        assert tails[0].data == {"dropped": 4}

    def test_reseal_after_read_refreshes_materialized_tail(self):
        log = EventLog(max_events=2)
        _fill(log, 4)
        log.seal(4.0)
        *_, tail = log  # a read builds events but stores none
        assert tail.data == {"dropped": 2}
        log.emit("frame.emit", 5.0, "host", frame=5)
        log.seal(5.0)
        tails = list(log.stream({"log.truncated"}))
        assert len(tails) == 1 and tails[0].data == {"dropped": 3}

    def test_disabled_log_ignores_seal(self):
        log = EventLog(enabled=False)
        log.seal(1.0)
        assert len(log) == 0


class TestInconclusiveVerdicts:
    def test_replay_of_truncated_log_is_inconclusive(self):
        log = EventLog(max_events=3)
        for i in range(6):
            log.emit(
                "frame.result", float(i), "host",
                frame=i, latency_s=1.0, deadline_s=2.3,
            )
        log.seal(6.0)
        (verdict,) = replay(log, [FrameDeadlineMonitor(deadline_s=2.3)])
        assert not verdict.ok
        assert verdict.inconclusive
        assert "truncated" in verdict.detail
        assert "3 events dropped" in verdict.detail
        assert verdict.as_dict()["inconclusive"] is True

    def test_violation_beats_inconclusive(self):
        log = EventLog(max_events=3)
        for i in range(6):
            log.emit(
                "frame.result", float(i), "host",
                frame=i, latency_s=9.0, deadline_s=2.3,
            )
        log.seal(6.0)
        (verdict,) = replay(log, [FrameDeadlineMonitor(deadline_s=2.3)])
        # A witnessed violation is conclusive even over a partial log.
        assert not verdict.ok
        assert not verdict.inconclusive
        assert "truncated" not in verdict.detail


class TestEngineIntegration:
    def test_run_seals_truncated_log(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
            telemetry=Telemetry(max_events=200),
            max_frames=40,
        )
        log = run.obs.events
        assert log.dropped > 0
        *_, tail = log
        assert tail.kind == "log.truncated"
        assert tail.data["dropped"] == log.dropped
        verdicts = replay(log, paper_monitors(PAPER_EXPERIMENTS["2"]))
        assert any(v.inconclusive for v in verdicts)
        assert all("violated" not in v.detail for v in verdicts if v.inconclusive)

    def test_untruncated_run_has_no_marker(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
            telemetry=True,
            max_frames=10,
        )
        log = run.obs.events
        assert log.dropped == 0
        assert all(e.kind != "log.truncated" for e in log)
        verdicts = replay(log, paper_monitors(PAPER_EXPERIMENTS["2"]))
        assert not any(v.inconclusive for v in verdicts)


def test_truncated_event_round_trips():
    event = TelemetryEvent("log.truncated", 3.5, "", {"dropped": 42})
    assert TelemetryEvent.from_dict(event.as_dict()) == event
