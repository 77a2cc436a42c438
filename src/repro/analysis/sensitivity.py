"""Sensitivity of the headline results to the calibrated parameters.

The reproduction's conclusions rest on five fitted constants (KiBaM
capacity, c, k'; io_activity; the idle-curve top). This module
perturbs each one-at-a-time and recomputes the key comparison — the
normalized lifetimes of the baseline, the partitioned pipeline, and
the rotating pipeline — with the analytical predictor, answering: *is
the paper's ordering an artefact of the fit, or a robust property of
the model family?*
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.apps.atr.profile import PAPER_PROFILE, TaskProfile
from repro.core.optimizer import predict_rotation_lifetime_hours
from repro.core.policies import BaselinePolicy, DVSDuringIOPolicy, SlowestFeasiblePolicy
from repro.core.prediction import predict_first_death
from repro.errors import ConfigurationError
from repro.hw.battery.kibam import KiBaMParameters, PAPER_KIBAM_PARAMETERS
from repro.hw.dvs import SA1100_TABLE
from repro.hw.link import PAPER_LINK_TIMING, TransactionTiming
from repro.hw.power import PAPER_POWER_MODEL, PowerModel
from repro.pipeline.schedule import plan_node
from repro.pipeline.tasks import Partition

__all__ = ["ScenarioOutcome", "evaluate_scenario", "sensitivity_sweep"]

#: The calibrated parameters and how to perturb each.
PARAMETERS = ("capacity", "c", "k_prime", "io_activity")


@dataclasses.dataclass(frozen=True)
class ScenarioOutcome:
    """Key normalized lifetimes under one parameterization.

    Attributes
    ----------
    label:
        Which parameter was perturbed, and by how much.
    baseline_h:
        T(1): single node with I/O at full speed (experiment 1).
    partitioned_norm_h:
        Tnorm of the 2-node scheme-1 pipeline (first death / 2).
    rotating_norm_h:
        Tnorm with ideal rotation (balanced death / 2).
    """

    label: str
    baseline_h: float
    partitioned_norm_h: float
    rotating_norm_h: float

    @property
    def partitioning_rnorm(self) -> float:
        """Rnorm of partitioning alone vs the baseline."""
        return self.partitioned_norm_h / self.baseline_h

    @property
    def rotation_rnorm(self) -> float:
        """Rnorm of partitioning + rotation vs the baseline."""
        return self.rotating_norm_h / self.baseline_h

    @property
    def ordering_holds(self) -> bool:
        """The paper's headline: baseline < partitioned < rotating."""
        return self.baseline_h < self.partitioned_norm_h < self.rotating_norm_h


def evaluate_scenario(
    label: str,
    battery: KiBaMParameters,
    power_model: PowerModel,
    profile: TaskProfile = PAPER_PROFILE,
    timing: TransactionTiming = PAPER_LINK_TIMING,
    deadline_s: float = 2.3,
) -> ScenarioOutcome:
    """Compute the three key lifetimes for one parameterization."""
    table = SA1100_TABLE
    single = Partition(profile)
    single_plans = [plan_node(single.stage(0), timing, deadline_s, table)]
    # The paper's reference point is experiment (1): full speed, no
    # DVS anywhere.
    single_roles = BaselinePolicy().role_configs(single_plans, table)
    _, baseline_h, _ = predict_first_death(
        single_roles, timing, deadline_s, battery, power_model, table
    )

    pair = Partition(profile, (1,))
    pair_plans = [
        plan_node(a, timing, deadline_s, table) for a in pair.assignments
    ]
    pair_roles = DVSDuringIOPolicy(SlowestFeasiblePolicy()).role_configs(
        pair_plans, table
    )
    _, first_death_h, _ = predict_first_death(
        pair_roles, timing, deadline_s, battery, power_model, table
    )
    rotating_h = predict_rotation_lifetime_hours(
        pair_roles, timing, deadline_s, battery, power_model, table
    )
    return ScenarioOutcome(
        label=label,
        baseline_h=baseline_h,
        partitioned_norm_h=first_death_h / 2.0,
        rotating_norm_h=rotating_h / 2.0,
    )


def _perturbed(
    parameter: str, factor: float
) -> tuple[KiBaMParameters, PowerModel]:
    battery = PAPER_KIBAM_PARAMETERS
    power = PAPER_POWER_MODEL
    if parameter == "capacity":
        battery = dataclasses.replace(
            battery, capacity_mah=battery.capacity_mah * factor
        )
    elif parameter == "c":
        battery = dataclasses.replace(battery, c=min(0.95, battery.c * factor))
    elif parameter == "k_prime":
        battery = dataclasses.replace(
            battery, k_prime_per_hour=battery.k_prime_per_hour * factor
        )
    elif parameter == "io_activity":
        power = power.replace(io_activity=min(1.0, power.io_activity * factor))
    else:
        raise ConfigurationError(f"unknown parameter {parameter!r}")
    return battery, power


def _scenario_job(
    task: tuple[str, KiBaMParameters, PowerModel]
) -> ScenarioOutcome:
    """Worker entry point for parallel sweeps (module-level: picklable)."""
    label, battery, power = task
    return evaluate_scenario(label, battery, power)


def sensitivity_sweep(
    rel_changes: t.Sequence[float] = (-0.10, 0.10),
    jobs: int = 1,
    batch: bool = False,
) -> list[ScenarioOutcome]:
    """One-at-a-time perturbation of every calibrated parameter.

    Returns the nominal scenario first, then one outcome per
    (parameter, change) pair. ``jobs > 1`` fans the scenarios over
    worker processes (each scenario is an independent analytical
    prediction, so ordering and results are identical to serial).
    ``batch=True`` routes every scenario through the vectorized cohort
    path (:func:`repro.batch.sweep.evaluate_tasks_batch`) — same
    outcomes, bit for bit, one numpy pass per epoch instead of one
    Python loop per config.
    """
    tasks: list[tuple[str, KiBaMParameters, PowerModel]] = [
        ("nominal", PAPER_KIBAM_PARAMETERS, PAPER_POWER_MODEL)
    ]
    for parameter in PARAMETERS:
        for change in rel_changes:
            battery, power = _perturbed(parameter, 1.0 + change)
            tasks.append((f"{parameter} {change:+.0%}", battery, power))
    if batch:
        from repro.batch.sweep import evaluate_tasks_batch

        return list(evaluate_tasks_batch(tasks).outcomes)

    from repro.exec import SweepExecutor

    return SweepExecutor(jobs=jobs).map(_scenario_job, tasks)
