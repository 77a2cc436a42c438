"""Vectorized many-run substrate: structure-of-arrays config cohorts.

A 10k-config sensitivity sweep through the scalar predictor costs one
Python jump/walk loop *per config*; this package advances the entire
sweep in one numpy pass per epoch instead:

- :mod:`repro.batch.kibam` — :class:`KiBaMCohort`, the KiBaM model in
  structure-of-arrays layout (per-config wells, currents and affine
  cycle maps as float64 columns), bit-identical to the scalar model;
- :mod:`repro.batch.stepper` — :class:`CohortStepper`, the epoch loop:
  analytic whole-cycle jumps for every row far from death, a masked
  segment walk with exact scalar root solves for the few near it;
- :mod:`repro.batch.sweep` — :func:`batch_sweep`, the reproduction's
  only sensitivity sweep (one-at-a-time or full grid): the
  sensitivity-scenario cohort builder, chunked execution through
  :class:`repro.exec.SweepExecutor` (so batching composes with process
  parallelism and the result cache), and :func:`task_reference_scalar`,
  the scalar reference that :func:`verify_sample` spot-checks against.
"""

from repro.batch.kibam import CohortCell, KiBaMCohort
from repro.batch.stepper import CohortResult, CohortStepper
from repro.batch.sweep import (
    BatchScenarioResult,
    BatchSweepResult,
    BatchSweepSpec,
    ScenarioOutcome,
    SweepPoint,
    batch_sweep,
    evaluate_tasks_batch,
    task_reference_scalar,
    verify_sample,
)

__all__ = [
    "CohortCell",
    "KiBaMCohort",
    "CohortResult",
    "CohortStepper",
    "BatchScenarioResult",
    "BatchSweepResult",
    "BatchSweepSpec",
    "ScenarioOutcome",
    "SweepPoint",
    "batch_sweep",
    "evaluate_tasks_batch",
    "task_reference_scalar",
    "verify_sample",
]
