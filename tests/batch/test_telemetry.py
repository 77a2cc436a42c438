"""batch.epoch telemetry: emission, monitor folding, paper checks."""

import numpy as np

from repro.batch import CohortCell, CohortStepper, KiBaMCohort
from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS
from repro.obs import EventLog, Telemetry
from repro.obs.checks import (
    FrameDeadlineMonitor,
    LinkBusyFractionMonitor,
    replay,
)


def run_with_telemetry(n_cells=6, limit_s=400.0 * 3600.0):
    cells = [
        CohortCell(PAPER_KIBAM_PARAMETERS, ((80.0 + 10.0 * i, 1.0), (30.0, 1.3)))
        for i in range(n_cells)
    ]
    obs = Telemetry()
    result = CohortStepper(KiBaMCohort(cells), limit_s, obs=obs).run()
    return result, obs


class TestBatchEpochEvents:
    def test_one_event_per_epoch(self):
        result, obs = run_with_telemetry()
        events = [e for e in obs.events if e.kind == "batch.epoch"]
        assert len(events) == result.epochs
        assert all(e.actor == "batch" for e in events)

    def test_frames_accounting_is_exact(self):
        """Summed per-epoch frames equal the cohort's total cycles."""
        result, obs = run_with_telemetry()
        folded = sum(
            e.data["frames"]
            for e in obs.events
            if e.kind == "batch.epoch"
        )
        assert folded == int(result.cycles.sum())

    def test_counters(self):
        result, obs = run_with_telemetry()
        counters = {
            c["name"]: c["value"] for c in obs.metrics.as_dict()["counters"]
        }
        assert counters["batch.cells"] == 6
        assert counters["batch.epochs"] == result.epochs
        assert counters["batch.frames"] == int(result.cycles.sum())
        assert counters["batch.root_solves"] == result.root_solves

    def test_epoch_timestamps_are_monotonic(self):
        _, obs = run_with_telemetry()
        ts = [e.ts for e in obs.events if e.kind == "batch.epoch"]
        assert ts == sorted(ts)


class TestMonitorFolding:
    def test_frame_deadline_monitor_folds_batch_epochs(self):
        result, obs = run_with_telemetry()
        monitor = FrameDeadlineMonitor(deadline_s=2.3)
        verdicts = replay(obs.events, [monitor])
        assert verdicts[0].ok
        # Batched frames count toward coverage, like ff.epoch frames.
        assert monitor.frames == int(result.cycles.sum())
        assert monitor.events_seen == result.epochs

    def test_link_busy_monitor_accepts_batch_epochs(self):
        """Analytic sweeps have no link; the span folds, nothing trips."""
        _, obs = run_with_telemetry()
        monitor = LinkBusyFractionMonitor()
        verdicts = replay(obs.events, [monitor])
        assert verdicts[0].ok
        assert monitor.events_seen > 0

    def test_decoded_log_replays_identically(self):
        cells = [CohortCell(PAPER_KIBAM_PARAMETERS, ((120.0, 1.1),))]
        obs = Telemetry()
        CohortStepper(KiBaMCohort(cells), 400.0 * 3600.0, obs=obs).run()
        live, decoded = (FrameDeadlineMonitor(deadline_s=2.3) for _ in range(2))
        (verdict,) = replay(obs.events, [live])
        (again,) = replay(EventLog.from_dict(obs.events.as_dict()), [decoded])
        assert again.as_dict() == verdict.as_dict()
        assert (decoded.frames, decoded.events_seen) == (live.frames, live.events_seen)
