"""Experiment specs and runner (fast variants on tiny batteries)."""

import pytest

from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    ExperimentSpec,
    run_experiment,
    run_paper_suite,
    summarize_runs,
    _label_key,
)
from repro.core.policies import BaselinePolicy
from repro.errors import ConfigurationError
from tests.conftest import tiny_battery_factory


class TestSpecs:
    def test_all_eight_experiments_defined(self):
        assert set(PAPER_EXPERIMENTS) == {"0A", "0B", "1", "1A", "2", "2A", "2B", "2C"}

    def test_paper_numbers_recorded(self):
        assert PAPER_EXPERIMENTS["2C"].paper.t_hours == 17.82
        assert PAPER_EXPERIMENTS["2C"].paper.rnorm_percent == 145.0

    def test_node_counts(self):
        assert PAPER_EXPERIMENTS["1"].n_nodes == 1
        assert PAPER_EXPERIMENTS["2"].n_nodes == 2
        assert PAPER_EXPERIMENTS["0A"].n_nodes == 1

    def test_2b_is_recovery(self):
        assert PAPER_EXPERIMENTS["2B"].recovery
        assert not PAPER_EXPERIMENTS["2C"].recovery

    def test_2c_rotates_every_100_frames(self):
        assert PAPER_EXPERIMENTS["2C"].rotation_period == 100


class TestRunner:
    def test_no_io_run(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["0A"], battery_factory=tiny_battery_factory
        )
        assert run.frames > 0
        assert run.t_hours > 0
        assert run.pipeline is None
        assert run.death_times_s

    def test_no_io_half_speed_does_more_work(self):
        fast = run_experiment(
            PAPER_EXPERIMENTS["0A"], battery_factory=tiny_battery_factory
        )
        slow = run_experiment(
            PAPER_EXPERIMENTS["0B"], battery_factory=tiny_battery_factory
        )
        # The paper's 0A/0B contrast: half speed completes more frames.
        assert slow.frames > fast.frames
        assert slow.t_hours > fast.t_hours

    def test_pipeline_run_returns_result(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
        )
        assert run.pipeline is not None
        assert run.frames == run.pipeline.frames_completed

    def test_max_frames_truncation(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["1"],
            battery_factory=tiny_battery_factory,
            max_frames=5,
        )
        assert run.frames == 5

    def test_spec_without_policy_rejected(self):
        spec = ExperimentSpec(label="x", description="bad", policy=None)
        with pytest.raises(ConfigurationError):
            run_experiment(spec)

    def test_no_io_without_level_rejected(self):
        spec = ExperimentSpec(label="x", description="bad", io_enabled=False)
        with pytest.raises(ConfigurationError):
            run_experiment(spec)

    def test_unknown_suite_label_rejected(self):
        with pytest.raises(ConfigurationError):
            run_paper_suite(["7Z"])

    def test_monitor_interval_without_telemetry_rejected(self):
        """battery.draw samples go to the telemetry bus: without one the
        setting would record nothing."""
        with pytest.raises(ConfigurationError, match="telemetry=True"):
            run_experiment(
                PAPER_EXPERIMENTS["1"],
                battery_factory=tiny_battery_factory,
                max_frames=3,
                monitor_interval_s=60.0,
            )
        run = run_experiment(
            PAPER_EXPERIMENTS["1"],
            battery_factory=tiny_battery_factory,
            max_frames=3,
            monitor_interval_s=60.0,
            telemetry=True,
        )
        assert list(run.obs.events.stream({"battery.draw"}))


class TestSharedRecorderDeprecation:
    """The removed shared-instance recorder path.

    ``run_paper_suite`` once accepted a caller-owned TraceRecorder or
    Telemetry (with a warning, forcing serial uncached execution). It
    now rejects one outright; per-run bool flags are the only way.
    """

    _KW = dict(battery_factory=tiny_battery_factory, max_frames=10)

    def test_per_run_bool_flags_do_not_warn(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", DeprecationWarning)
            run_paper_suite(["2"], trace=True, telemetry=True, **self._KW)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("flag", ["trace", "telemetry"])
    def test_shared_recorder_instance_rejected(self, flag, jobs):
        from repro.obs import Telemetry
        from repro.sim import TraceRecorder

        shared = TraceRecorder() if flag == "trace" else Telemetry()
        with pytest.raises(ConfigurationError, match=f"{flag}=True"):
            run_paper_suite(["2"], jobs=jobs, **{flag: shared}, **self._KW)


class TestMetricsAndSummary:
    def test_metrics_use_paper_formula(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
            max_frames=100,
        )
        m = run.metrics(baseline_hours=1.0)
        assert m.t_hours == pytest.approx((100 * 2.3 + 2.3) / 3600.0)
        assert m.tnorm_hours == pytest.approx(m.t_hours / 2)

    def test_summarize_orders_labels(self):
        runs = run_paper_suite(
            ["1", "2", "0A"],
            battery_factory=tiny_battery_factory,
            max_frames=5,
        )
        rows = summarize_runs(runs)
        assert [m.label for m in rows] == ["0A", "1", "2"]

    def test_summarize_rnorm_against_baseline(self):
        runs = run_paper_suite(
            ["1", "2"], battery_factory=tiny_battery_factory
        )
        rows = {m.label: m for m in summarize_runs(runs)}
        assert rows["1"].rnorm == pytest.approx(1.0)
        assert rows["2"].rnorm is not None

    def test_label_sort_key(self):
        labels = ["2C", "0A", "1A", "2", "1", "0B", "2B", "2A"]
        assert sorted(labels, key=_label_key) == [
            "0A", "0B", "1", "1A", "2", "2A", "2B", "2C",
        ]


class TestTinyScaleOrdering:
    """The paper's qualitative ordering must hold even on a small cell."""

    @pytest.fixture(scope="class")
    def runs(self):
        return run_paper_suite(
            ["1", "1A", "2", "2A", "2C"],
            battery_factory=tiny_battery_factory,
        )

    def test_dvs_during_io_beats_baseline(self, runs):
        assert runs["1A"].frames > runs["1"].frames

    def test_partitioning_doubles_absolute_life(self, runs):
        assert runs["2"].t_hours > 1.5 * runs["1"].t_hours

    def test_rotation_is_best_two_node_technique(self, runs):
        assert runs["2C"].frames > runs["2A"].frames > runs["2"].frames
