"""Per-node energy accounting from the run's energy ledger.

The paper's discussion keeps returning to *where the charge went*: I/O
time is long but cheap per second, computation dominates, and an
unbalanced partition strands capacity in the surviving node. This
module rolls a pipeline run's :class:`~repro.obs.energy.EnergyLedger`
up by node and power mode — per-node delivered charge, per-mode charge
and time shares — and adds the charge left stranded at the end
(:attr:`~repro.pipeline.engine.PipelineResult.remaining_mah`).

Requires the run to have recorded telemetry (``telemetry=True``): that
is what fills the ledger.
"""

from __future__ import annotations

import typing as t

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.pipeline.engine import PipelineResult

__all__ = ["energy_breakdown_rows", "render_energy_breakdown"]

#: Power modes reported as columns, in display order.
_MODES = ("computation", "communication", "idle")


def energy_breakdown_rows(result: PipelineResult) -> list[dict[str, t.Any]]:
    """One row per node: delivered charge, mode shares, stranded charge.

    Raises
    ------
    ConfigurationError
        If the run was executed without telemetry (no energy ledger).
    """
    if result.obs is None or not len(result.obs.energy):
        raise ConfigurationError(
            "energy breakdown needs the run's energy ledger; run the "
            "pipeline with telemetry=True"
        )
    ledger = result.obs.energy
    time_s: dict[tuple[str, str], float] = {}
    for entry in ledger.rows():
        key = (entry.node, entry.mode)
        time_s[key] = time_s.get(key, 0.0) + entry.time_s
    rows: list[dict[str, t.Any]] = []
    for name, delivered in result.delivered_mah.items():
        charge = ledger.mode_totals_mah(name)
        total_charge = sum(charge.values())
        total_time = sum(v for (node, _), v in time_s.items() if node == name) or 1.0
        row: dict[str, t.Any] = {"node": name, "delivered_mAh": delivered}
        for mode in _MODES:
            share = charge.get(mode, 0.0) / total_charge if total_charge > 0 else 0.0
            row[f"{mode}_charge_pct"] = 100.0 * share
            row[f"{mode}_time_pct"] = 100.0 * time_s.get((name, mode), 0.0) / total_time
        row["stranded_mAh"] = result.remaining_mah[name]
        row["died"] = name in result.death_times_s
        rows.append(row)
    return rows


def render_energy_breakdown(result: PipelineResult) -> str:
    """ASCII table of :func:`energy_breakdown_rows`."""
    rows = energy_breakdown_rows(result)
    return format_table(
        rows,
        columns=[
            "node",
            "delivered_mAh",
            "computation_charge_pct",
            "communication_charge_pct",
            "idle_charge_pct",
            "computation_time_pct",
            "communication_time_pct",
            "idle_time_pct",
            "stranded_mAh",
            "died",
        ],
        headers={
            "delivered_mAh": "delivered mAh",
            "computation_charge_pct": "comp %q",
            "communication_charge_pct": "comm %q",
            "idle_charge_pct": "idle %q",
            "computation_time_pct": "comp %t",
            "communication_time_pct": "comm %t",
            "idle_time_pct": "idle %t",
            "stranded_mAh": "stranded mAh",
        },
        float_fmt=".1f",
        title="energy breakdown (q = charge share, t = time share)",
    )
