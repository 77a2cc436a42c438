"""Ablation — sensitivity of the headline result to the calibration.

Perturbs each fitted model parameter by +-10% (the one-at-a-time
``batch_sweep``) and recomputes the normalized lifetimes behind
Fig. 10's story: baseline (1), partitioning (2A-like), and rotation
(2C-like). The reproduction's claim is only as strong as this table:
the ordering baseline < partitioned < rotating must not be an artefact
of one lucky fit point.
"""

from benchmarks.conftest import print_block
from repro.analysis.tables import format_table
from repro.batch.sweep import BatchSweepSpec, batch_sweep


def test_calibration_sensitivity(benchmark):
    spec = BatchSweepSpec(grid=3, mode="one_at_a_time")
    outcomes = benchmark.pedantic(
        lambda: batch_sweep(spec).outcomes, rounds=1, iterations=1
    )
    rows = [
        {
            "scenario": o.label,
            "T1_hours": round(o.baseline_h, 2),
            "partitioning_Rnorm_pct": round(100 * o.partitioning_rnorm, 1),
            "rotation_Rnorm_pct": round(100 * o.rotation_rnorm, 1),
            "ordering_holds": o.ordering_holds,
        }
        for o in outcomes
    ]
    print_block(
        "Ablation — +-10% parameter perturbations vs the headline ordering",
        format_table(rows),
    )

    nominal = outcomes[0]
    assert nominal.label == "nominal"
    # Nominal reproduces the paper's story.
    assert nominal.ordering_holds
    assert 1.05 < nominal.partitioning_rnorm < 1.35
    assert nominal.rotation_rnorm > nominal.partitioning_rnorm + 0.2

    # The ordering survives every perturbation...
    assert all(o.ordering_holds for o in outcomes)
    # ...and rotation's advantage never drops below 20 points of Rnorm.
    for o in outcomes:
        assert o.rotation_rnorm - o.partitioning_rnorm > 0.2
