"""Steady-state epoch fast-forward: exact-vs-fast equivalence.

Tier-1 tests run the paper experiments on the tiny 25 mAh battery so
both modes finish in well under a second each; the contract checked is
the one the engine promises — identical frame counts, lifetimes within
0.1%, counters advanced arithmetically to the same totals — plus the
gating rules (stochastic timing never jumps, tracing refuses fast
mode) and the cache/registry aliasing guarantees. The full-scale
eight-experiment identity run is tier2 (``-m tier2``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    experiment_fingerprint,
    run_experiment,
    run_paper_suite,
)
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.hw.battery import KiBaM
from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS
from repro.hw.link import TransactionTiming
from repro.obs.checks import paper_monitors, replay
from repro.obs.energy import verify_conservation
from repro.pipeline.engine import PipelineEngine

from tests.conftest import tiny_battery_factory

TINY = dict(battery_factory=tiny_battery_factory)


def _pair(label: str, **kwargs):
    """One spec run in both modes on the tiny battery."""
    spec = PAPER_EXPERIMENTS[label]
    exact = run_experiment(spec, mode="exact", **TINY, **kwargs)
    fast = run_experiment(spec, mode="fast", **TINY, **kwargs)
    return exact, fast


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), 1e-12)


class TestNoIOEquivalence:
    """§6.1 runs: the degenerate one-segment cycle, jumped analytically."""

    @pytest.mark.parametrize("label", ["0A", "0B"])
    def test_frames_identical_and_lifetime_close(self, label):
        exact, fast = _pair(label)
        assert fast.frames == exact.frames
        assert _rel(fast.t_hours, exact.t_hours) < 1e-3

    def test_fast_dispatches_far_fewer_events(self):
        exact, fast = _pair("0A")
        assert fast.sim_events < exact.sim_events / 10

    def test_ff_epoch_event_records_the_jump(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["0A"], mode="fast", telemetry=True, **TINY
        )
        epochs = list(run.obs.events.stream({"ff.epoch"}))
        assert len(epochs) == 1
        (e,) = epochs
        assert e.data["frames"] == e.data["periods"] > 0
        assert e.data["t1"] - e.data["t0"] == pytest.approx(
            e.data["periods"] * e.data["period_s"]
        )


class TestPipelineEquivalence:
    """Pipelined runs: detection, jump, re-sync through every §5 variant."""

    @pytest.mark.parametrize("label", ["1", "1A", "2", "2A", "2B", "2C"])
    def test_frames_identical_and_lifetime_close(self, label):
        exact, fast = _pair(label)
        assert fast.frames == exact.frames
        assert _rel(fast.t_hours, exact.t_hours) < 1e-3
        for name, t_exact in exact.death_times_s.items():
            assert _rel(fast.death_times_s[name], t_exact) < 1e-3
        # Both modes end the run on the same event, at the same time.
        assert fast.pipeline.end_reason == exact.pipeline.end_reason
        assert _rel(fast.pipeline.end_time_s, exact.pipeline.end_time_s) <= 1e-9

    def test_jumps_actually_happen(self):
        _, fast = _pair("2")
        assert fast.pipeline.ff_jumps >= 1
        assert fast.pipeline.ff_frames_skipped > 0
        assert fast.pipeline.ff_frames_skipped < fast.frames

    def test_exact_mode_never_jumps(self):
        exact, _ = _pair("2")
        assert exact.pipeline.ff_jumps == 0
        assert exact.pipeline.ff_frames_skipped == 0

    def test_counters_match_exact(self):
        """Arithmetic counter bumps land on the event-exact totals."""
        exact = run_experiment(
            PAPER_EXPERIMENTS["2"], mode="exact", telemetry=True, **TINY
        )
        fast = run_experiment(
            PAPER_EXPERIMENTS["2"], mode="fast", telemetry=True, **TINY
        )
        for key in ("frames.completed",):
            assert fast.obs.metrics.counter(key).value == pytest.approx(
                exact.obs.metrics.counter(key).value
            )

    def test_rotation_period_folds_into_detection(self):
        """Rotation widens the candidate period to one full role cycle.

        The tiny battery dies inside 2C's first 100-frame rotation
        epoch, so a shorter rotation period is substituted to get
        several complete role cycles — and therefore jumps — into the
        run while still comparing both modes on equal footing.
        """
        import dataclasses

        spec = dataclasses.replace(PAPER_EXPERIMENTS["2C"], rotation_period=5)
        exact = run_experiment(spec, mode="exact", **TINY)
        fast = run_experiment(spec, mode="fast", **TINY)
        assert fast.frames == exact.frames
        assert _rel(fast.t_hours, exact.t_hours) < 1e-3
        assert fast.pipeline.ff_jumps >= 1


class TestResultTimestamps:
    """Deliveries a jump skips still land in ``result_times_s``.

    2C runs with rotation period 5, as above, so its tiny-battery run
    jumps. A 64-entry sample cap makes the cap fall inside the jumped
    span.
    """

    @pytest.mark.parametrize("keep", [64, PipelineEngine.keep_result_times])
    @pytest.mark.parametrize("mode", ["exact", "fast"])
    @pytest.mark.parametrize("label", ["1", "1A", "2", "2A", "2C"])
    def test_mean_result_period_matches_exact(
        self, label, mode, keep, monkeypatch
    ):
        monkeypatch.setattr(PipelineEngine, "keep_result_times", keep)
        spec = PAPER_EXPERIMENTS[label]
        if spec.rotation_period is not None:
            spec = dataclasses.replace(spec, rotation_period=5)
        exact = run_experiment(spec, mode="exact", **TINY).pipeline
        run = run_experiment(spec, mode=mode, **TINY).pipeline
        assert (mode == "fast") == (run.ff_frames_skipped > 0)
        assert len(run.result_times_s) == min(run.frames_completed, keep)
        assert _rel(
            run.mean_result_period_s(), exact.mean_result_period_s()
        ) < 1e-9


class TestPaperSuiteJumpCounts:
    """Full-scale fast mode reaches the endgame in one jump per run.

    The jump size credits the bound well's recovery during the jump
    (``KiBaM.safe_cycles``), so each steady state is crossed in one
    jump that stops two cycles short of death. The counts are
    deterministic; the frames are the exact-mode lifetimes.
    """

    #: Exact-mode frame counts on the paper battery.
    EXACT_FRAMES = {
        "0A": 11218, "0B": 20507, "1": 9509, "1A": 12467,
        "2": 22307, "2A": 22711, "2B": 25724, "2C": 30653,
    }

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            label: run_experiment(PAPER_EXPERIMENTS[label], mode="fast")
            for label in self.EXACT_FRAMES
        }

    def test_frames_match_exact(self, runs):
        assert {k: r.frames for k, r in runs.items()} == self.EXACT_FRAMES

    @pytest.mark.parametrize("label", ["1", "1A", "2", "2A"])
    def test_one_jump(self, runs, label):
        assert runs[label].pipeline.ff_jumps == 1

    def test_recovery_run_jumps_at_most_twice(self, runs):
        # 2B re-arms once after the first node dies and the survivor
        # settles into its single-node steady state.
        assert 1 <= runs["2B"].pipeline.ff_jumps <= 2

    def test_rotation_reaches_death_in_one_jump(self, runs):
        pipe = runs["2C"].pipeline
        assert pipe.ff_jumps == 1
        assert runs["2C"].frames - pipe.ff_frames_skipped <= 2500


ROTATION_BATTERY = dataclasses.replace(
    PAPER_KIBAM_PARAMETERS, capacity_mah=PAPER_KIBAM_PARAMETERS.capacity_mah / 25
)


def _rotation_battery() -> KiBaM:
    return KiBaM(ROTATION_BATTERY)


class TestRotationPeriodsBeyondThePaper:
    """Fast == exact for rotation periods other than the paper's 100.

    At 1/25 of the paper's capacity each run lasts ~400 frames, so the
    short periods fold into super-periods that detect, jump once, and
    leave the endgame to exact simulation; period 25 (50-frame
    super-period) dies before a jump pays off and runs exactly.
    """

    @pytest.mark.parametrize("deadline_s", [2.3, 2.5])
    @pytest.mark.parametrize("period", [2, 3, 7, 25])
    def test_fast_matches_exact(self, period, deadline_s):
        spec = dataclasses.replace(
            PAPER_EXPERIMENTS["2C"], rotation_period=period, deadline_s=deadline_s
        )
        runs = {
            mode: run_experiment(
                spec,
                battery_factory=_rotation_battery,
                telemetry=True,
                monitor_interval_s=120.0,
                mode=mode,
            )
            for mode in ("exact", "fast")
        }
        exact, fast = runs["exact"], runs["fast"]
        assert fast.pipeline.ff_jumps == (1 if period < 25 else 0)
        assert fast.frames == exact.frames
        assert _rel(fast.t_hours, exact.t_hours) < 1e-9

        def verdicts(run):
            return [
                (v.monitor, v.ok, v.inconclusive)
                for v in replay(run.obs.events, paper_monitors(spec))
            ]

        assert verdicts(fast) == verdicts(exact)
        checks = verify_conservation(fast.obs.energy, fast.pipeline.delivered_mah)
        assert len(checks) == 2
        assert all(c.ok for c in checks), [c.as_dict() for c in checks]


class TestGating:
    def test_stochastic_timing_never_jumps(self):
        """Jittered startups must gate fast-forward off entirely."""
        timing = TransactionTiming(startup_jitter_s=0.01)
        spec = PAPER_EXPERIMENTS["2"]
        fast = run_experiment(
            spec, mode="fast", timing=timing, max_frames=40, **TINY
        )
        exact = run_experiment(
            spec, mode="exact", timing=timing, max_frames=40, **TINY
        )
        assert fast.pipeline.ff_jumps == 0
        assert fast.frames == exact.frames
        assert fast.t_hours == exact.t_hours

    def test_trace_requires_exact_mode(self):
        with pytest.raises(ConfigurationError, match="trace"):
            run_experiment(PAPER_EXPERIMENTS["2"], mode="fast", trace=True, **TINY)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            run_experiment(PAPER_EXPERIMENTS["2"], mode="warp", **TINY)


class TestModeKeys:
    """Fast and exact results must never alias in caches or registries."""

    def test_fingerprints_distinguish_modes(self):
        spec = PAPER_EXPERIMENTS["2"]
        fp_exact = experiment_fingerprint(spec, {"mode": "exact"})
        fp_fast = experiment_fingerprint(spec, {"mode": "fast"})
        assert fp_exact != fp_fast

    def test_default_mode_fingerprints_as_exact(self):
        spec = PAPER_EXPERIMENTS["2"]
        assert experiment_fingerprint(spec, {}) == experiment_fingerprint(
            spec, {"mode": "exact"}
        )

    def test_cache_keeps_modes_separate(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kw = dict(cache=cache, **TINY)
        fast = run_paper_suite(["2"], mode="fast", **kw)["2"]
        assert fast.pipeline.ff_jumps >= 1
        # Same cache, exact mode: must be a miss, not the fast payload.
        exact = run_paper_suite(["2"], mode="exact", **kw)["2"]
        assert exact.pipeline.ff_jumps == 0
        assert cache.hits == 0

    def test_cached_fast_run_round_trips_ff_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kw = dict(cache=cache, mode="fast", **TINY)
        first = run_paper_suite(["2"], **kw)["2"]
        again = run_paper_suite(["2"], **kw)["2"]
        assert cache.hits == 1
        assert again.frames == first.frames
        assert again.sim_events == first.sim_events
        assert again.pipeline.ff_jumps == first.pipeline.ff_jumps
        assert again.pipeline.ff_frames_skipped == first.pipeline.ff_frames_skipped


@pytest.mark.tier2
class TestFullScaleIdentity:
    """The acceptance contract on the real 1400 mAh battery.

    Slow (tens of seconds): selected with ``-m tier2``, exercised by
    the CI perf-smoke job rather than the default test run.
    """

    @pytest.fixture(scope="class")
    def suites(self):
        exact = run_paper_suite(mode="exact")
        fast = run_paper_suite(mode="fast")
        return exact, fast

    def test_frame_counts_identical_all_labels(self, suites):
        exact, fast = suites
        assert {k: r.frames for k, r in fast.items()} == {
            k: r.frames for k, r in exact.items()
        }

    def test_lifetimes_within_a_tenth_percent(self, suites):
        exact, fast = suites
        for label, run in fast.items():
            assert _rel(run.t_hours, exact[label].t_hours) < 1e-3, label

    @pytest.mark.parametrize("label", ["1", "1A", "2", "2A", "2C"])
    def test_mean_result_period_identical(self, suites, label):
        exact, fast = suites
        assert _rel(
            fast[label].pipeline.mean_result_period_s(),
            exact[label].pipeline.mean_result_period_s(),
        ) < 1e-9

    def test_runs_end_alike(self, suites):
        exact, fast = suites
        for label, run in fast.items():
            if run.pipeline is None:  # 0A/0B run no pipeline
                continue
            ref = exact[label].pipeline
            assert run.pipeline.end_reason == ref.end_reason, label
            assert _rel(run.pipeline.end_time_s, ref.end_time_s) <= 1e-9, label

    def test_fig10_ordering_holds_in_fast_mode(self, suites):
        _, fast = suites
        t = {k: r.t_hours for k, r in fast.items()}
        assert t["2C"] > t["2B"] > t["2A"] > t["2"]

    @pytest.mark.parametrize("extra", [["--fast"], []])
    def test_check_paper_green_in_both_modes(self, extra):
        from repro.cli import main

        assert main(["check", "--paper", *extra]) == 0
