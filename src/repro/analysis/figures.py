"""One generator per paper artifact.

Each ``figureN_*`` function returns a :class:`FigureData`: the
structured rows/series behind the paper's figure plus a rendered text
block. The benchmark harness prints the text; the regression tests
assert on the rows.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.analysis.charts import bar_chart
from repro.analysis.tables import format_table
from repro.apps.atr.profile import PAPER_PROFILE, TaskProfile
from repro.core.experiments import ExperimentRun, summarize_runs
from repro.core.partitioning import analyze_partitions
from repro.hw.dvs import SA1100_TABLE, DVSTable
from repro.hw.link import PAPER_LINK_TIMING, TransactionTiming
from repro.hw.power import PAPER_POWER_MODEL, PowerModel
from repro.units import bytes_to_kb

__all__ = [
    "FigureData",
    "figure6_performance_profile",
    "figure7_power_profile",
    "figure8_partitioning",
    "figure10_results",
]


@dataclasses.dataclass(frozen=True)
class FigureData:
    """Structured rows plus rendered text for one paper artifact."""

    figure: str
    rows: tuple[dict[str, t.Any], ...]
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def figure6_performance_profile(
    profile: TaskProfile = PAPER_PROFILE,
    timing: TransactionTiming = PAPER_LINK_TIMING,
) -> FigureData:
    """Fig. 6: per-block compute times, payloads, and transfer delays."""
    rows: list[dict[str, t.Any]] = []
    rows.append(
        {
            "stage": "input (host -> node)",
            "proc_s_at_206MHz": None,
            "payload_kb": bytes_to_kb(profile.input_bytes),
            "transfer_s": timing.nominal_duration(profile.input_bytes),
        }
    )
    for block in profile.blocks:
        rows.append(
            {
                "stage": block.name,
                "proc_s_at_206MHz": block.seconds_at_max,
                "payload_kb": bytes_to_kb(block.output_bytes),
                "transfer_s": timing.nominal_duration(block.output_bytes),
            }
        )
    total = {
        "stage": "TOTAL (PROC)",
        "proc_s_at_206MHz": profile.total_seconds_at_max,
        "payload_kb": None,
        "transfer_s": None,
    }
    rows.append(total)
    text = format_table(
        rows,
        columns=["stage", "proc_s_at_206MHz", "payload_kb", "transfer_s"],
        headers={
            "proc_s_at_206MHz": "PROC s @206.4MHz",
            "payload_kb": "output KB",
            "transfer_s": "transfer s",
        },
        float_fmt=".3f",
        title="Fig. 6 — ATR performance profile on Itsy",
    )
    return FigureData("fig6", tuple(rows), text)


def figure7_power_profile(power_model: PowerModel = PAPER_POWER_MODEL) -> FigureData:
    """Fig. 7: idle/communication/computation current per DVS level."""
    rows = tuple(power_model.figure7_rows())
    text = format_table(
        rows,
        columns=["freq_mhz", "volts", "idle_ma", "communication_ma", "computation_ma"],
        headers={
            "freq_mhz": "MHz",
            "volts": "V",
            "idle_ma": "idle mA",
            "communication_ma": "comm mA",
            "computation_ma": "comp mA",
        },
        float_fmt=".1f",
        title="Fig. 7 — power profile of ATR on Itsy (net current draw)",
    )
    return FigureData("fig7", rows, text)


def figure8_partitioning(
    profile: TaskProfile = PAPER_PROFILE,
    timing: TransactionTiming = PAPER_LINK_TIMING,
    deadline_s: float = 2.3,
    table: DVSTable = SA1100_TABLE,
    n_stages: int = 2,
) -> FigureData:
    """Fig. 8: the partitioning schemes with required clocks and payloads."""
    analyses = analyze_partitions(profile, n_stages, timing, deadline_s, table)
    rows = tuple(a.as_row() for a in analyses)
    text = format_table(
        rows,
        title=f"Fig. 8 — {n_stages}-way partitioning schemes (D = {deadline_s} s)",
        float_fmt=".1f",
    )
    return FigureData("fig8", rows, text)


def figure10_results(runs: dict[str, ExperimentRun]) -> FigureData:
    """Fig. 10: absolute and normalized battery life per experiment.

    ``runs`` should contain the I/O-bound experiments (1, 1A, 2, 2A,
    2B, 2C); the no-I/O runs are excluded, as in the paper.
    """
    metrics = [
        m for m in summarize_runs(runs) if runs[m.label].spec.io_enabled
    ]
    rows = []
    table_rows = []
    for m in metrics:
        paper = runs[m.label].spec.paper
        row = {
            **m.as_row(),
            "paper_T_hours": paper.t_hours if paper else None,
            "paper_Rnorm_percent": paper.rnorm_percent if paper else None,
        }
        rows.append(row)
        # The table formats the unrounded values, as the bar charts do:
        # formatting the rows' 3-place roundings to 2 places rounds
        # twice (1A's 7.965028 h would print 7.96 here and 7.97 below).
        table_rows.append(
            {
                **row,
                "T_hours": m.t_hours,
                "Tnorm_hours": m.tnorm_hours,
                "Rnorm_percent": None if m.rnorm is None else m.rnorm * 100,
            }
        )
    table_text = format_table(
        table_rows,
        title="Fig. 10 — experiment results (measured vs paper)",
        float_fmt=".2f",
    )
    annotations = {
        m.label: f"Rnorm {m.rnorm * 100:.0f}%" if m.rnorm is not None else ""
        for m in metrics
    }
    absolute = bar_chart(
        [(m.label, m.t_hours) for m in metrics],
        unit=" h",
        title="absolute battery life",
    )
    normalized = bar_chart(
        [(m.label, m.tnorm_hours) for m in metrics],
        unit=" h",
        annotations=annotations,
        title="normalized battery life (T / N)",
    )
    text = "\n\n".join([table_text, absolute, normalized])
    return FigureData("fig10", tuple(rows), text)
