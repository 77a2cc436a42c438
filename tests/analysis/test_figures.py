"""Figure generators: structured rows behind each paper artifact."""

import pytest

from repro.analysis.figures import (
    figure6_performance_profile,
    figure7_power_profile,
    figure8_partitioning,
    figure10_results,
)
from repro.core.experiments import PAPER_EXPERIMENTS, ExperimentRun, run_paper_suite
from tests.conftest import tiny_battery_factory


class TestFigure6:
    def test_rows_cover_input_blocks_total(self):
        fig = figure6_performance_profile()
        stages = [r["stage"] for r in fig.rows]
        assert stages[0].startswith("input")
        assert "target_detection" in stages
        assert stages[-1].startswith("TOTAL")

    def test_input_transfer_is_paper_recv_time(self):
        fig = figure6_performance_profile()
        assert fig.rows[0]["transfer_s"] == pytest.approx(1.1, abs=0.01)

    def test_total_proc_is_1_1s(self):
        fig = figure6_performance_profile()
        assert fig.rows[-1]["proc_s_at_206MHz"] == pytest.approx(1.1)

    def test_text_renders(self):
        assert "Fig. 6" in figure6_performance_profile().text


class TestFigure7:
    def test_eleven_rows(self):
        assert len(figure7_power_profile().rows) == 11

    def test_quoted_anchors_present(self):
        rows = figure7_power_profile().rows
        first, last = rows[0], rows[-1]
        assert first["communication_ma"] == pytest.approx(40.0)
        assert last["communication_ma"] == pytest.approx(110.0)
        assert last["computation_ma"] == pytest.approx(130.0)

    def test_text_renders(self):
        assert "Fig. 7" in figure7_power_profile().text


class TestFigure8:
    def test_three_schemes(self):
        assert len(figure8_partitioning().rows) == 3

    def test_scheme1_row(self):
        row = figure8_partitioning().rows[0]
        assert row["node1_mhz"] == 59.0
        assert row["node2_mhz"] == 103.2
        assert row["feasible"]

    def test_scheme3_infeasible_row(self):
        row = figure8_partitioning().rows[2]
        assert not row["feasible"]


class TestDischargeCurves:
    """The per-node series behind the report's discharge charts."""

    def test_curves_per_node(self):
        from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
        from repro.obs.events import discharge_curves

        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
            telemetry=True,
            monitor_interval_s=30.0,
        )
        curves = discharge_curves(run.obs.events)
        assert set(curves) == {"node1", "node2"}
        # Fractions are non-increasing per node.
        for samples in curves.values():
            fracs = [frac for _, frac in samples]
            assert len(fracs) >= 2
            assert all(b <= a + 1e-9 for a, b in zip(fracs, fracs[1:]))

    def test_fast_mode_folds_jumps(self):
        """Each ``ff.epoch`` adds a post-jump sample, so a run whose
        steady state is skipped still draws its whole discharge."""
        from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
        from repro.obs.events import discharge_curves

        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            telemetry=True,
            monitor_interval_s=300.0,
            mode="fast",
        )
        (epoch,) = list(run.obs.events.stream({"ff.epoch"}))
        curves = discharge_curves(run.obs.events)
        assert set(curves) == {"node1", "node2"}
        for node, samples in curves.items():
            assert (epoch.data["t1"], epoch.data["charge_fraction"][node]) in samples
            fracs = [frac for _, frac in samples]
            assert len(fracs) >= 2
            assert all(b <= a + 1e-9 for a, b in zip(fracs, fracs[1:]))

    def test_requires_monitors(self):
        from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
        from repro.obs.events import discharge_curves
        from repro.obs.report import build_html_report

        run = run_experiment(
            PAPER_EXPERIMENTS["1"],
            battery_factory=tiny_battery_factory,
            telemetry=True,
            max_frames=3,
        )
        assert discharge_curves(run.obs.events) == {}
        page = build_html_report([run], battery_factory=tiny_battery_factory)
        assert "Battery discharge" not in page


class TestFigure10:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_paper_suite(
            ["1", "1A", "2", "0A"], battery_factory=tiny_battery_factory
        )

    def test_excludes_no_io_experiments(self, runs):
        fig = figure10_results(runs)
        labels = [r["experiment"] for r in fig.rows]
        assert "0A" not in labels
        assert labels == ["1", "1A", "2"]

    def test_rows_carry_paper_reference(self, runs):
        fig = figure10_results(runs)
        baseline = fig.rows[0]
        assert baseline["paper_T_hours"] == 6.13
        assert baseline["Rnorm_percent"] == pytest.approx(100.0)

    def test_text_has_both_charts(self, runs):
        text = figure10_results(runs).text
        assert "absolute battery life" in text
        assert "normalized battery life" in text

    def test_table_and_bars_agree_for_1a(self):
        # Paper-scale exact lifetimes of experiments 1 and 1A. 1A's
        # 7.965028 h once printed 7.96 in the table (rounded to 3 places,
        # then to 2) and 7.97 in the bars.
        runs = {
            label: ExperimentRun(
                spec=PAPER_EXPERIMENTS[label],
                frames=frames,
                t_hours=t_hours,
                death_times_s={},
            )
            for label, frames, t_hours in (
                ("1", 9509, 6.075194444444444),
                ("1A", 12467, 7.965027777777777),
            )
        }
        fig = figure10_results(runs)
        table, absolute, normalized = fig.text.split("\n\n")
        row = next(line for line in table.splitlines() if line.startswith("1A "))
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[3:5] == ["7.97", "7.97"]  # T_hours, Tnorm_hours
        for chart in (absolute, normalized):
            bar = next(line for line in chart.splitlines() if line.startswith("1A "))
            assert "7.97 h" in bar
        # The structured rows (and so CSV exports) keep their 3 places.
        assert fig.rows[1]["T_hours"] == 7.965
