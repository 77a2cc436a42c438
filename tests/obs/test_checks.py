"""Invariant monitors: each check passes on a clean synthetic stream
and fails on the same stream minimally perturbed.

Every monitor gets a pair of tests built from hand-written event
streams — a deadline miss, a battery charge uptick, a late recovery
ack, a saturated link, a lost discharge balance — so a verdict flip
can be attributed to exactly one perturbed event. The end-to-end
pass-on-real-runs behaviour is covered by the CLI `check` tests.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
from repro.obs import EventLog, Telemetry
from repro.obs.checks import (
    PAPER_ORDERING,
    ChargeMonotonicMonitor,
    FrameDeadlineMonitor,
    InvariantMonitor,
    LinkBusyFractionMonitor,
    RecoveryLatencyMonitor,
    RotationBalanceMonitor,
    check_paper_ordering,
    paper_monitors,
    replay,
)

from tests.conftest import tiny_battery_factory


def _log(events):
    """Build an EventLog from (kind, ts, actor, data) tuples."""
    log = EventLog()
    for kind, ts, actor, data in events:
        log.emit(kind, ts, actor, **data)
    return log


def _verdict(monitor, events):
    [verdict] = replay(_log(events), [monitor])
    return verdict


# ---------------------------------------------------------------------------
# frame deadline
# ---------------------------------------------------------------------------

_FRAMES_OK = [
    ("frame.result", 4.6, "host", {"frame": 0, "latency_s": 4.2, "late": False}),
    ("frame.result", 6.9, "host", {"frame": 1, "latency_s": 4.4, "late": False}),
    ("frame.result", 9.2, "host", {"frame": 2, "latency_s": 4.1, "late": False}),
]


class TestFrameDeadlineMonitor:
    def test_passes_within_contract(self):
        verdict = _verdict(FrameDeadlineMonitor(2.3, n_stages=2), _FRAMES_OK)
        assert verdict.ok
        assert verdict.events_seen == 3
        assert verdict.violating_event is None

    def test_fails_on_single_late_frame(self):
        events = list(_FRAMES_OK)
        # Perturb one frame past the 2 * 2.3 s contract.
        events[1] = (
            "frame.result", 11.9, "host",
            {"frame": 1, "latency_s": 9.4, "late": True},
        )
        verdict = _verdict(FrameDeadlineMonitor(2.3, n_stages=2), events)
        assert not verdict.ok
        assert verdict.violations == 1
        assert verdict.violating_event.data["frame"] == 1
        assert "9.400s" in verdict.detail

    def test_grace_widens_the_bound(self):
        events = [
            ("frame.result", 11.9, "host",
             {"frame": 1, "latency_s": 9.4, "late": True}),
        ]
        strict = _verdict(FrameDeadlineMonitor(2.3, n_stages=2), events)
        graced = _verdict(
            FrameDeadlineMonitor(2.3, n_stages=2, grace_s=6.9), list(events)
        )
        assert not strict.ok
        assert graced.ok

    def test_ignores_other_event_kinds(self):
        verdict = _verdict(
            FrameDeadlineMonitor(2.3),
            [("battery.draw", 1.0, "node1", {"charge_fraction": 0.5})],
        )
        assert verdict.ok
        assert verdict.events_seen == 0


# ---------------------------------------------------------------------------
# charge monotonicity
# ---------------------------------------------------------------------------

_CHARGE_OK = [
    ("battery.draw", 60.0, "node1", {"charge_fraction": 0.99, "current_ma": 40.0, "mode": "computation"}),
    ("battery.draw", 60.0, "node2", {"charge_fraction": 0.98, "current_ma": 42.0, "mode": "computation"}),
    ("battery.draw", 120.0, "node1", {"charge_fraction": 0.97, "current_ma": 40.0, "mode": "idle"}),
    ("battery.draw", 120.0, "node2", {"charge_fraction": 0.96, "current_ma": 41.0, "mode": "idle"}),
    ("battery.draw", 180.0, "node1", {"charge_fraction": 0.95, "current_ma": 40.0, "mode": "communication"}),
]


class TestChargeMonotonicMonitor:
    def test_passes_on_discharge(self):
        verdict = _verdict(ChargeMonotonicMonitor(), _CHARGE_OK)
        assert verdict.ok
        assert "2 nodes" in verdict.detail

    def test_fails_on_charge_uptick(self):
        events = list(_CHARGE_OK)
        # node1's third sample rises above its second: a model leak.
        events[4] = (
            "battery.draw", 180.0, "node1",
            {"charge_fraction": 0.975, "current_ma": 40.0, "mode": "idle"},
        )
        verdict = _verdict(ChargeMonotonicMonitor(), events)
        assert not verdict.ok
        assert verdict.violating_event.ts == 180.0
        assert "node1" in verdict.detail

    def test_per_node_tracking_no_cross_node_false_positive(self):
        # node2 (0.98) reporting after node1 (0.97) is NOT an uptick.
        events = [
            ("battery.draw", 60.0, "node1", {"charge_fraction": 0.97}),
            ("battery.draw", 61.0, "node2", {"charge_fraction": 0.98}),
        ]
        assert _verdict(ChargeMonotonicMonitor(), events).ok

    def test_tolerance_absorbs_float_noise(self):
        events = [
            ("battery.draw", 60.0, "node1", {"charge_fraction": 0.97}),
            ("battery.draw", 61.0, "node1", {"charge_fraction": 0.97 + 1e-12}),
        ]
        assert _verdict(ChargeMonotonicMonitor(), events).ok


# ---------------------------------------------------------------------------
# link busy fraction
# ---------------------------------------------------------------------------

def _xfers(duration_s, n=20, spacing_s=2.3):
    return [
        ("link.xfer", (i + 1) * spacing_s, "node1",
         {"to": "node2", "bytes": 20000, "duration_s": duration_s})
        for i in range(n)
    ]


class TestLinkBusyFractionMonitor:
    def test_passes_at_moderate_utilisation(self):
        verdict = _verdict(LinkBusyFractionMonitor(), _xfers(duration_s=1.0))
        assert verdict.ok
        assert "peak busy fraction" in verdict.detail

    def test_fails_past_the_budget(self):
        # Transfers longer than their spacing: >100% busy, impossible
        # on a half-duplex serial link — must be flagged.
        verdict = _verdict(LinkBusyFractionMonitor(), _xfers(duration_s=2.6))
        assert not verdict.ok
        assert "node1" in verdict.detail

    def test_short_streams_are_vacuous(self):
        # Below the warmup span a single fat transfer proves nothing.
        verdict = _verdict(
            LinkBusyFractionMonitor(warmup_s=10.0),
            [("link.xfer", 2.0, "node1",
              {"to": "node2", "bytes": 100, "duration_s": 1.9})],
        )
        assert verdict.ok


# ---------------------------------------------------------------------------
# fast-forward epochs (mode="fast" coalesced records)
# ---------------------------------------------------------------------------

def _epoch(ts, frames, link_busy_s, t0=None):
    return (
        "ff.epoch", ts, "host",
        {
            "frames": frames, "periods": frames, "period_s": 2.3,
            "t0": ts - frames * 2.3 if t0 is None else t0, "t1": ts,
            "late": 0, "drained_mah": {}, "link_busy_s": link_busy_s,
        },
    )


class TestMonitorsAcceptEpochs:
    """ff.epoch events fold into the monitors instead of blinding them."""

    def test_deadline_monitor_counts_skipped_frames(self):
        monitor = FrameDeadlineMonitor(2.3, n_stages=2)
        verdict = _verdict(monitor, _FRAMES_OK + [_epoch(239.2, 100, {})])
        assert verdict.ok
        assert monitor.frames == len(_FRAMES_OK) + 100
        assert "103 frames" in verdict.detail

    def test_deadline_monitor_never_flags_an_epoch(self):
        # An epoch spans far longer than any per-frame bound; it must
        # contribute to coverage, not be mistaken for a late frame.
        verdict = _verdict(FrameDeadlineMonitor(2.3), [_epoch(230.0, 100, {})])
        assert verdict.ok

    def test_link_busy_merges_epoch_busy_time(self):
        # 20 exact transfers at 1.0 s / 2.3 s spacing, then an epoch
        # whose coalesced busy time keeps the same moderate fraction.
        stream = _xfers(duration_s=1.0) + [_epoch(276.0, 100, {"node1": 100.0})]
        verdict = _verdict(LinkBusyFractionMonitor(), stream)
        assert verdict.ok

    def test_link_busy_epoch_saturation_still_fails(self):
        # The epoch claims more busy seconds than its span: the merged
        # fraction crosses 1.0 and the monitor must still flag it.
        stream = _xfers(duration_s=1.0) + [_epoch(276.0, 100, {"node1": 260.0})]
        verdict = _verdict(LinkBusyFractionMonitor(), stream)
        assert not verdict.ok
        assert "node1" in verdict.detail

    def test_epoch_only_stream_uses_t0_for_the_span(self):
        verdict = _verdict(
            LinkBusyFractionMonitor(),
            [_epoch(230.0, 100, {"node1": 100.0}, t0=0.0)],
        )
        assert verdict.ok


# ---------------------------------------------------------------------------
# rotation discharge balance
# ---------------------------------------------------------------------------

def _balanced(spread):
    events = []
    for i in range(1, 5):
        t = 60.0 * i
        base = 1.0 - 0.05 * i
        events.append(("battery.draw", t, "node1", {"charge_fraction": base}))
        events.append(
            ("battery.draw", t, "node2", {"charge_fraction": base - spread})
        )
    return events


class TestRotationBalanceMonitor:
    def test_passes_when_balanced(self):
        verdict = _verdict(
            RotationBalanceMonitor(tolerance=0.12, n_nodes=2), _balanced(0.02)
        )
        assert verdict.ok
        assert "spread" in verdict.detail

    def test_fails_when_one_node_runs_ahead(self):
        verdict = _verdict(
            RotationBalanceMonitor(tolerance=0.12, n_nodes=2), _balanced(0.3)
        )
        assert not verdict.ok
        assert verdict.violating_event.kind == "battery.draw"

    def test_waits_for_every_node_before_judging(self):
        # Only node1 ever reports: no spread to evaluate, vacuous pass.
        events = [
            ("battery.draw", 60.0, "node1", {"charge_fraction": 0.9}),
            ("battery.draw", 120.0, "node1", {"charge_fraction": 0.2}),
        ]
        verdict = _verdict(RotationBalanceMonitor(n_nodes=2), events)
        assert verdict.ok
        assert "fewer than two nodes" in verdict.detail

    def test_ff_epoch_refreshes_every_node(self):
        # node2's last sample predates the jump; without the epoch's
        # post-jump fractions node1's next sample would be compared
        # against it and report a spread of 0.3.
        epoch = (
            "ff.epoch", 960.0, "host",
            {"frames": 400, "charge_fraction": {"node1": 0.6, "node2": 0.61}},
        )
        events = [
            ("battery.draw", 60.0, "node1", {"charge_fraction": 0.9}),
            ("battery.draw", 61.0, "node2", {"charge_fraction": 0.9}),
            epoch,
            ("battery.draw", 1020.0, "node1", {"charge_fraction": 0.59}),
        ]
        verdict = _verdict(RotationBalanceMonitor(n_nodes=2), events)
        assert verdict.ok, verdict.detail


# ---------------------------------------------------------------------------
# recovery detection latency
# ---------------------------------------------------------------------------

_RECOVERY_OK = [
    ("battery.dead", 1000.0, "node1", {"delivered_mah": 95.2}),
    ("recovery.migrate", 1006.9, "node2",
     {"survivor": "node2", "detect_timeout_s": 6.9}),
]


class TestRecoveryLatencyMonitor:
    def test_passes_within_the_ack_timeout(self):
        verdict = _verdict(RecoveryLatencyMonitor(6.9, slack_s=2.3), _RECOVERY_OK)
        assert verdict.ok
        assert "1 migrations" in verdict.detail

    def test_fails_on_late_detection(self):
        events = [
            _RECOVERY_OK[0],
            # Ack silence noticed three deadlines too late.
            ("recovery.migrate", 1016.2, "node2",
             {"survivor": "node2", "detect_timeout_s": 6.9}),
        ]
        verdict = _verdict(RecoveryLatencyMonitor(6.9, slack_s=2.3), events)
        assert not verdict.ok
        assert "detection latency" in verdict.detail
        assert verdict.violating_event.kind == "recovery.migrate"

    def test_fails_on_migration_without_death(self):
        verdict = _verdict(
            RecoveryLatencyMonitor(6.9), [_RECOVERY_OK[1]]
        )
        assert not verdict.ok
        assert "no preceding" in verdict.detail

    def test_no_migrations_is_a_vacuous_pass(self):
        verdict = _verdict(RecoveryLatencyMonitor(6.9), [_RECOVERY_OK[0]])
        assert verdict.ok
        assert "no migrations" in verdict.detail


# ---------------------------------------------------------------------------
# replay over a live, pickled or decoded log; verdict shape
# ---------------------------------------------------------------------------

def _tiny_2b(max_events: int):
    spec = PAPER_EXPERIMENTS["2B"]
    run = run_experiment(
        spec,
        battery_factory=tiny_battery_factory,
        telemetry=Telemetry(max_events=max_events),
        monitor_interval_s=60.0,
    )
    return spec, run.obs.events


class TestStreamingEquivalence:
    @pytest.mark.parametrize("max_events", [1_000_000, 300])
    def test_replay_equal_on_decoded_copies(self, max_events):
        """What the exact rung relies on when it re-checks a run decoded
        from the cache: the same verdicts from every copy of the log."""
        spec, log = _tiny_2b(max_events)
        assert bool(log.dropped) == (max_events == 300)
        copies = [log, pickle.loads(pickle.dumps(log)), EventLog.from_dict(log.as_dict())]
        verdicts = [
            [v.as_dict() for v in replay(copy, paper_monitors(spec))]
            for copy in copies
        ]
        assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]
        if log.dropped:
            assert all(v["inconclusive"] and not v["ok"] for v in verdicts[0])
        else:
            assert all(v["ok"] and not v["inconclusive"] for v in verdicts[0])

    @pytest.mark.parametrize("max_events", [1_000_000, 300])
    def test_replay_builds_only_monitored_kinds(self, max_events):
        """Replaying a log equals a pass over every record, truncated or not."""
        spec, log = _tiny_2b(max_events)
        assert bool(log.dropped) == (max_events == 300)
        every = [v.as_dict() for v in replay(list(log.stream()), paper_monitors(spec))]
        replayed = [v.as_dict() for v in replay(log, paper_monitors(spec))]
        assert replayed == every
        monitored = {"battery.draw", "log.truncated"}
        assert {e.kind for e in log.stream(monitored)} <= monitored
        assert len(list(log.stream(monitored))) == sum(
            log.counts_by_kind().get(kind, 0) for kind in monitored
        )

    def test_base_class_requires_observe_implementation(self):
        class Incomplete(InvariantMonitor):
            pass

        with pytest.raises(NotImplementedError):
            Incomplete().observe(next(iter(_log([("x", 0.0, "", {})]))))


class TestPaperMonitors:
    def test_selected_per_spec(self):
        names = lambda spec: {m.name for m in paper_monitors(spec)}
        assert names(PAPER_EXPERIMENTS["2"]) == {
            "charge-monotonic", "frame-deadline", "link-busy-fraction",
        }
        assert "recovery-latency" in names(PAPER_EXPERIMENTS["2B"])
        assert "rotation-balance" in names(PAPER_EXPERIMENTS["2C"])
        # No-I/O runs have no pipeline, links, or deadline contract.
        assert names(PAPER_EXPERIMENTS["0A"]) == {"charge-monotonic"}

    def test_recovery_spec_gets_deadline_grace(self):
        monitors = {m.name: m for m in paper_monitors(PAPER_EXPERIMENTS["2B"])}
        spec = PAPER_EXPERIMENTS["2B"]
        strict = spec.n_nodes * spec.deadline_s
        assert monitors["frame-deadline"].bound_s > strict + spec.recovery_detect_timeout_s - 1e-9


class TestPaperOrdering:
    _GOOD = {"2C": 9.79, "2B": 8.22, "2A": 7.26, "2": 7.13}

    def test_correct_ordering_passes(self):
        verdicts = check_paper_ordering(self._GOOD)
        assert len(verdicts) == len(PAPER_ORDERING) - 1
        assert all(v.ok for v in verdicts)

    def test_inverted_pair_fails_that_pair_only(self):
        tnorms = dict(self._GOOD, **{"2B": 7.0})  # drops below 2A
        verdicts = {v.monitor: v for v in check_paper_ordering(tnorms)}
        assert verdicts["paper-ordering:2C>2B"].ok
        assert not verdicts["paper-ordering:2B>2A"].ok

    def test_missing_label_is_reported(self):
        tnorms = {k: v for k, v in self._GOOD.items() if k != "2A"}
        verdicts = check_paper_ordering(tnorms)
        assert len(verdicts) == 1
        assert not verdicts[0].ok
        assert "2A" in verdicts[0].detail
