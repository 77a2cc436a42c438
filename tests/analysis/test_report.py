"""The reproduction report's paper artifacts: every figure, one document."""

import re

import pytest

from repro.core.experiments import PAPER_EXPERIMENTS, run_paper_suite
from repro.obs.report import build_html_report, write_html_report
from tests.conftest import tiny_battery_factory
from tests.obs.html_schema import validate_html


@pytest.fixture(scope="module")
def report_text():
    runs = run_paper_suite(
        ["1", "2", "2C"],
        battery_factory=tiny_battery_factory,
        telemetry=True,
        monitor_interval_s=60.0,
    )
    return build_html_report(runs, battery_factory=tiny_battery_factory)


class TestBuildReport:
    def test_all_figure_sections_present(self, report_text):
        for section in (
            "Fig. 2", "Fig. 3", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
        ):
            assert f"<h2>{section} " in report_text
        assert "Design-space ranking" in report_text

    def test_energy_breakdowns_for_pipeline_runs(self, report_text):
        # One breakdown per pipeline run (1, 2 and 2C all have one).
        assert report_text.count("<h3>Energy breakdown</h3>") == 3
        assert report_text.count("energy breakdown (q = charge share") == 3

    def test_discharge_curves_for_pipeline_runs(self, report_text):
        for label in ("2", "2C"):
            section = report_text.split(f'id="run-{label}"')[1]
            section = section.split("<h2")[0]
            assert "<h3>Battery discharge</h3>" in section
            assert "<polyline" in section

    def test_raw_metrics_table(self, report_text):
        summary = report_text.split("<h2>Suite summary</h2>")[1].split("<h2")[0]
        assert "paper T (h)" in summary
        # Experiment 2C's paper lifetime sits in the same row as its own.
        paper_t = f"{PAPER_EXPERIMENTS['2C'].paper.t_hours:.2f}"
        row = re.search(r"<td class='l'>2C</td>.*?</tr>", summary).group(0)
        assert f"<td>{paper_t}</td>" in row

    def test_pre_blocks_are_escaped_and_balanced(self, report_text):
        assert validate_html(report_text) == []
        assert report_text.count("<pre>") == report_text.count("</pre>") > 0
        for block in re.findall(r"<pre>(.*?)</pre>", report_text, re.DOTALL):
            assert "<" not in block

    def test_write_report(self, tmp_path, report_text):
        runs = run_paper_suite(
            ["1"], battery_factory=tiny_battery_factory, telemetry=True,
            monitor_interval_s=60.0,
        )
        path = write_html_report(
            tmp_path / "r.html", runs, battery_factory=tiny_battery_factory
        )
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        assert validate_html(text) == []
