#!/usr/bin/env python3
"""Quickstart: reproduce the paper's headline comparison.

Runs four of the paper's experiments on the simulated Itsy testbed —
baseline, DVS during I/O, partitioning, and node rotation — and prints
the Fig. 10-style comparison. Takes about fifteen seconds: each run
discharges a calibrated battery model over several simulated hours.

Usage::

    python examples/quickstart.py [--fast]

``--fast`` fast-forwards steady-state epochs analytically (about a
second; frame counts are identical to the exact runs').
"""

import sys

from repro import figure10_results, run_paper_suite


def main() -> None:
    mode = "fast" if "--fast" in sys.argv else "exact"
    labels = ["1", "1A", "2", "2C"]

    print(f"Running experiments {labels} (paper-scale batteries, "
          f"{mode} simulation)...")
    runs = run_paper_suite(labels, mode=mode)

    print()
    print(figure10_results(runs).text)
    print()
    best = max(runs.values(), key=lambda r: r.t_hours / r.spec.n_nodes)
    print(
        f"Longest normalized battery life: experiment ({best.spec.label}) — "
        f"{best.spec.description}"
    )


if __name__ == "__main__":
    main()
