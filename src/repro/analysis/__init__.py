"""Reporting: tables, charts, timing diagrams, and exports.

Everything here renders to plain text (and CSV/JSON) — the benchmarks
print the same rows and series the paper's figures show, and the tests
assert on the structured data behind them.

- :mod:`repro.analysis.tables` — fixed-width ASCII tables.
- :mod:`repro.analysis.charts` — ASCII bar charts and line plots.
- :mod:`repro.analysis.gantt` — timing-vs-activity diagrams from
  simulation traces (the paper's Figs. 2, 3 and 9).
- :mod:`repro.analysis.figures` — one generator per paper artifact
  (Fig. 6, 7, 8, 10), returning structured rows plus rendered text.
- :mod:`repro.analysis.export` — CSV/JSON writers.

The calibration-sensitivity sweep is :func:`repro.batch.sweep.batch_sweep`.
"""

from repro.analysis.charts import bar_chart, line_plot
from repro.analysis.energy import energy_breakdown_rows, render_energy_breakdown
from repro.analysis.export import rows_to_csv, rows_to_json
from repro.analysis.gantt import render_gantt
from repro.analysis.report import build_report, write_report
from repro.analysis.tables import format_table
from repro.analysis.figures import (
    figure6_performance_profile,
    figure7_power_profile,
    figure8_partitioning,
    figure10_results,
    figure_discharge_curves,
)

__all__ = [
    "format_table",
    "bar_chart",
    "line_plot",
    "render_gantt",
    "build_report",
    "write_report",
    "rows_to_csv",
    "energy_breakdown_rows",
    "render_energy_breakdown",
    "rows_to_json",
    "figure6_performance_profile",
    "figure7_power_profile",
    "figure8_partitioning",
    "figure10_results",
    "figure_discharge_curves",
]
