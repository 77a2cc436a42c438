#!/usr/bin/env python3
"""Variable workload on the distributed pipeline.

The paper fixes its ATR workload; real scenes vary — more targets,
harder clutter, or richer matching (see
``examples/atr_image_demo.py`` and the multi-scale matcher). This demo
runs the partitioned pipeline under a bursty workload with three
strategies and prints the timeliness/energy trade:

- static slowest-feasible levels (the paper's policy, sized for the
  nominal cost);
- per-frame adaptive DVS (re-pick the level from each frame's actual
  cost);
- worst-case headroom (levels sized for the burst cost).

Usage::

    python examples/variable_workload_demo.py
"""

from repro import (
    DVSDuringIOPolicy,
    PAPER_BATTERY,
    PAPER_LINK_TIMING,
    PAPER_PROFILE,
    PinnedLevelsPolicy,
    PipelineConfig,
    PipelineEngine,
    Partition,
    SA1100_TABLE,
    SlowestFeasiblePolicy,
)
from repro.analysis.tables import format_table
from repro.pipeline.schedule import plan_node
from repro.pipeline.workload import BurstyWorkload

D = 2.3


def run(policy, adaptive: bool):
    partition = Partition(PAPER_PROFILE, (1,))
    plans = [
        plan_node(a, PAPER_LINK_TIMING, D, SA1100_TABLE)
        for a in partition.assignments
    ]
    config = PipelineConfig(
        partition=partition,
        roles=policy.role_configs(plans, SA1100_TABLE),
        node_names=("node1", "node2"),
        battery_factory=PAPER_BATTERY,
        deadline_s=D,
        workload=BurstyWorkload(
            calm_scale=0.9, burst_scale=1.25, burst_prob=0.08, burst_length=4
        ),
        adaptive_workload_dvs=adaptive,
        seed=11,
        monitor_interval_s=None,
    )
    return PipelineEngine(config).run()


def main() -> None:
    print("Bursty ATR workload: 0.9x calm frames, 1.25x bursts of 4 "
          "(paper-scale cells)\n")
    strategies = {
        "static slowest-feasible (paper)": (
            DVSDuringIOPolicy(SlowestFeasiblePolicy()), False,
        ),
        "adaptive per-frame DVS": (
            DVSDuringIOPolicy(SlowestFeasiblePolicy()), True,
        ),
        "worst-case headroom (132.7 MHz)": (
            DVSDuringIOPolicy(PinnedLevelsPolicy([73.7, 132.7])), False,
        ),
    }
    rows = []
    for name, (policy, adaptive) in strategies.items():
        result = run(policy, adaptive)
        rows.append(
            {
                "strategy": name,
                "frames": result.frames_completed,
                "late_per_1k": round(
                    1000 * result.late_results / result.frames_completed, 1
                ),
                "max_lateness_s": round(result.max_lateness_s, 2),
                "node2_mAh": round(result.delivered_mah["node2"], 1),
            }
        )
    print(format_table(rows))
    print(
        "\nThe paper's static levels miss deadlines whenever a burst "
        "arrives; adaptive\nper-frame DVS restores timeliness while "
        "completing more frames than the\nworst-case-headroom clocks — "
        "the Shin/Im-style slack reclamation the paper\ncites as "
        "compatible with its setting."
    )


if __name__ == "__main__":
    main()
