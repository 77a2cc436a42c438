"""Full reproduction report."""

import pytest

from repro.analysis.report import build_report, write_report
from repro.core.experiments import run_paper_suite
from tests.conftest import tiny_battery_factory


@pytest.fixture(scope="module")
def report_text():
    runs = run_paper_suite(
        ["1", "2", "2C"],
        battery_factory=tiny_battery_factory,
        telemetry=True,
        monitor_interval_s=60.0,
    )
    return build_report(runs, battery_factory=tiny_battery_factory)


class TestBuildReport:
    def test_all_figure_sections_present(self, report_text):
        for section in (
            "Fig. 2", "Fig. 3", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
        ):
            assert f"## {section}" in report_text

    def test_energy_breakdowns_for_pipeline_runs(self, report_text):
        assert "Energy breakdown — experiment (2)" in report_text
        assert "Energy breakdown — experiment (2C)" in report_text

    def test_discharge_curves_for_pipeline_runs(self, report_text):
        assert "Discharge curves — experiment (2)" in report_text
        assert "Discharge curves — experiment (2C)" in report_text

    def test_raw_metrics_table(self, report_text):
        assert "## Raw metrics" in report_text
        assert "| 2C |" in report_text

    def test_markdown_code_fences_balanced(self, report_text):
        assert report_text.count("```") % 2 == 0

    def test_write_report(self, tmp_path, report_text):
        runs = run_paper_suite(
            ["1"], battery_factory=tiny_battery_factory, telemetry=True,
            monitor_interval_s=60.0,
        )
        path = write_report(
            tmp_path / "r.md", runs=runs, battery_factory=tiny_battery_factory
        )
        assert path.read_text().startswith("# Reproduction report")
