#!/usr/bin/env python3
"""Power-failure recovery in action (§5.4 / experiment 2B).

Runs the partitioned pipeline with the ack/timeout/migrate protocol on
the paper's cells (steady-state epochs fast-forwarded), narrates the failure sequence, and prints the
per-node energy breakdown — showing both sides of the paper's verdict:
the protocol's ack transactions cost energy on every frame, but after
the heavy node dies the survivor's otherwise-stranded charge buys
thousands of extra frames.

Usage::

    python examples/failure_recovery_demo.py
"""

from repro import run_experiment
from repro.analysis.energy import render_energy_breakdown
from repro.analysis.tables import format_table
from repro.core.experiments import PAPER_EXPERIMENTS


def main() -> None:
    print("Running (2A) partitioned pipeline and (2B) with failure recovery")
    print("(paper-scale cells, fast-forwarded)...\n")
    plain = run_experiment(PAPER_EXPERIMENTS["2A"], telemetry=True, mode="fast")
    recovery = run_experiment(
        PAPER_EXPERIMENTS["2B"], telemetry=True, mode="fast"
    )

    rows = []
    for run in (plain, recovery):
        result = run.pipeline
        first_death = min(result.death_times_s.values())
        rows.append(
            {
                "experiment": run.spec.label,
                "frames": run.frames,
                "first_death_h": first_death / 3600.0,
                "last_result_h": result.last_result_s / 3600.0,
                "migrated": bool(result.migrations),
                "end": result.end_reason,
            }
        )
    print(format_table(rows, float_fmt=".2f"))

    result = recovery.pipeline
    mig_time, survivor = result.migrations[0]
    extra = (result.last_result_s - mig_time) / recovery.spec.deadline_s
    print(
        f"\nAt t = {mig_time / 3600:.2f} h the survivor ({survivor}) detected "
        f"the missing\nacknowledgment, migrated the whole ATR chain onto "
        f"itself, redirected the\nhost connection, and delivered ~{extra:.0f} "
        "further frames before its own\nbattery gave out.\n"
    )

    print("Without recovery, the stall strands the survivor's charge:")
    print(render_energy_breakdown(plain.pipeline))
    print()
    print("With recovery, both cells end empty:")
    print(render_energy_breakdown(result))


if __name__ == "__main__":
    main()
