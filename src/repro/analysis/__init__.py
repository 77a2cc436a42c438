"""Text renderers: tables, charts, timing diagrams, and paper figures.

Everything here renders to plain text — the benchmarks print the same
rows and series the paper's figures show, and the tests assert on the
structured data behind them.

- :mod:`repro.analysis.tables` — fixed-width ASCII tables.
- :mod:`repro.analysis.charts` — ASCII bar charts and line plots.
- :mod:`repro.analysis.gantt` — timing-vs-activity diagrams from
  simulation traces (the paper's Figs. 2, 3 and 9).
- :mod:`repro.analysis.figures` — one generator per paper artifact
  (Fig. 6, 7, 8, 10), returning structured rows plus rendered text.
- :mod:`repro.analysis.energy` — per-node energy breakdowns.

The reproduction report (:mod:`repro.obs.report`) embeds these text
blocks, and :mod:`repro.obs.export` writes their rows to CSV/JSON/LaTeX.

The calibration-sensitivity sweep is :func:`repro.batch.sweep.batch_sweep`.
"""

from repro.analysis.charts import bar_chart, line_plot
from repro.analysis.energy import energy_breakdown_rows, render_energy_breakdown
from repro.analysis.gantt import render_gantt
from repro.analysis.tables import format_table
from repro.analysis.figures import (
    figure6_performance_profile,
    figure7_power_profile,
    figure8_partitioning,
    figure10_results,
)

__all__ = [
    "format_table",
    "bar_chart",
    "line_plot",
    "render_gantt",
    "energy_breakdown_rows",
    "render_energy_breakdown",
    "figure6_performance_profile",
    "figure7_power_profile",
    "figure8_partitioning",
    "figure10_results",
]
