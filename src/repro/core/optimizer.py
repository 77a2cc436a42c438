"""Configuration search: what *should* this system run?

The paper hand-picks its configurations (scheme 1, DVS during I/O,
rotate every 100 frames). With the analytical lifetime predictor
(:mod:`repro.core.prediction`) each candidate costs microseconds, so
the whole design space — every contiguous partition up to a given
depth, with and without DVS-during-I/O, with and without node rotation
— can simply be enumerated and ranked. This is the design tool the
paper's methodology implies but never builds.

Rotation is predicted analytically too: for any rotation period that is
short against the battery's diffusion time constant (hours), a rotating
node's discharge is indistinguishable from cycling through all roles'
duty cycles back to back, so the balanced lifetime is the death time
under the concatenated cycle. The integration tests check this against
the event-driven engine.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.apps.atr.profile import TaskProfile
from repro.core.calibration import Anchor, predicted_lifetime_hours
from repro.core.policies import (
    BaselinePolicy,
    DVSDuringIOPolicy,
    DVSPolicy,
    SlowestFeasiblePolicy,
)
from repro.core.prediction import predict_role_lifetime_hours, role_duty_cycle
from repro.errors import ConfigurationError, InfeasiblePartitionError
from repro.hw.battery.kibam import KiBaMParameters, PAPER_KIBAM_PARAMETERS
from repro.hw.dvs import SA1100_TABLE, DVSTable
from repro.hw.link import PAPER_LINK_TIMING, TransactionTiming
from repro.hw.power import PAPER_POWER_MODEL, PowerModel
from repro.pipeline.engine import RoleConfig
from repro.pipeline.schedule import plan_node
from repro.pipeline.tasks import Partition, enumerate_partitions

__all__ = [
    "Candidate",
    "predict_rotation_lifetime_hours",
    "optimize_configuration",
    "resolve_roles",
    "duty_cycle_currents",
    "mean_current_ma",
]


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One evaluated configuration.

    Attributes
    ----------
    description:
        Human-readable label (scheme, policy, rotation).
    n_stages:
        Pipeline depth (= batteries used).
    cuts:
        Partition cut points.
    dvs_during_io:
        Whether I/O runs at the minimum level.
    rotation:
        Whether roles rotate (balanced discharge).
    lifetime_hours:
        Predicted absolute system lifetime T (first death without
        rotation; common death with).
    normalized_hours:
        T / N — the paper's efficiency metric.
    per_stage_hours:
        Stage lifetimes without rotation (informational).
    """

    description: str
    n_stages: int
    cuts: tuple[int, ...]
    dvs_during_io: bool
    rotation: bool
    lifetime_hours: float
    normalized_hours: float
    per_stage_hours: tuple[float, ...]


def predict_rotation_lifetime_hours(
    roles: t.Sequence[RoleConfig],
    timing: TransactionTiming = PAPER_LINK_TIMING,
    deadline_s: float = 2.3,
    battery: KiBaMParameters = PAPER_KIBAM_PARAMETERS,
    power_model: PowerModel = PAPER_POWER_MODEL,
    table: DVSTable = SA1100_TABLE,
) -> float:
    """Balanced lifetime under ideal role rotation.

    Every node cycles through all roles' duty cycles, so each battery
    sees the same concatenated load pattern and they exhaust together.
    Valid for rotation periods short against the battery's diffusion
    time constant (any reasonable period; the paper's 100 frames is
    four minutes against a ~2.4 h constant).
    """
    segments: list = []
    for role in roles:
        segments.extend(role_duty_cycle(role, timing, deadline_s))
    anchor = Anchor("rotation", tuple(segments), 0.0)
    return predicted_lifetime_hours(anchor, battery, power_model, table)


def resolve_roles(
    profile: TaskProfile,
    cuts: t.Sequence[int],
    policy: DVSPolicy,
    timing: TransactionTiming = PAPER_LINK_TIMING,
    deadline_s: float = 2.3,
    table: DVSTable = SA1100_TABLE,
) -> tuple[RoleConfig, ...]:
    """Partition ``profile`` at ``cuts`` and pick operating points.

    The structural half of a configuration — everything a duty cycle
    needs except the power model — resolved in one step so prescreen
    rungs can share it across configs that differ only in battery or
    ``io_activity``.

    Raises
    ------
    ConfigurationError
        For invalid cuts.
    InfeasiblePartitionError
        When some stage cannot meet the deadline at any level.
    """
    partition = Partition(profile, tuple(cuts))
    plans = [
        plan_node(a, timing, deadline_s, table) for a in partition.assignments
    ]
    return tuple(policy.role_configs(plans, table))


def duty_cycle_currents(
    segments: t.Sequence,
    power_model: PowerModel = PAPER_POWER_MODEL,
    table: DVSTable = SA1100_TABLE,
) -> tuple[tuple[float, float], ...]:
    """A duty cycle as ``(current_mA, duration_s)`` steps.

    Resolves each :class:`~repro.core.calibration.DutySegment` through
    the power model — the same expression the batch sweep's cycle
    builder evaluates, so analytic prescreens, cohort cells, and the
    scalar predictor all draw identical currents.
    """
    return tuple(
        (
            power_model.current_ma(seg.mode, table.level_at(seg.level_mhz)),
            seg.duration_s,
        )
        for seg in segments
    )


def mean_current_ma(cycle: t.Sequence[tuple[float, float]]) -> float:
    """Duration-weighted average current of a ``(mA, s)`` cycle."""
    total = sum(dt for _, dt in cycle)
    if total <= 0:
        raise ConfigurationError("cycle needs a positive total duration")
    return sum(i * dt for i, dt in cycle) / total


def _policy_for(dvs_during_io: bool, single_stage: bool) -> DVSPolicy:
    base: DVSPolicy = BaselinePolicy() if single_stage else SlowestFeasiblePolicy()
    # A single node has no slack to slow down in the paper's setting,
    # but SlowestFeasible == Baseline there anyway; use slowest-feasible
    # uniformly so looser deadlines still benefit.
    base = SlowestFeasiblePolicy()
    return DVSDuringIOPolicy(base) if dvs_during_io else base


def optimize_configuration(
    profile: TaskProfile,
    max_stages: int = 2,
    timing: TransactionTiming = PAPER_LINK_TIMING,
    deadline_s: float = 2.3,
    battery: KiBaMParameters = PAPER_KIBAM_PARAMETERS,
    power_model: PowerModel = PAPER_POWER_MODEL,
    table: DVSTable = SA1100_TABLE,
    objective: str = "normalized",
) -> list[Candidate]:
    """Enumerate and rank every configuration in the design space.

    Parameters
    ----------
    objective:
        ``"normalized"`` ranks by T/N (the paper's efficiency metric),
        ``"absolute"`` by raw system lifetime T.

    Returns
    -------
    Candidates sorted best-first; infeasible partitions are skipped.

    Raises
    ------
    ConfigurationError
        For an unknown objective or empty design space.
    """
    if objective not in ("normalized", "absolute"):
        raise ConfigurationError(f"unknown objective {objective!r}")

    candidates: list[Candidate] = []
    for n_stages in range(1, max_stages + 1):
        for partition in enumerate_partitions(profile, n_stages):
            for dvs_io in (False, True):
                try:
                    plans = [
                        plan_node(a, timing, deadline_s, table)
                        for a in partition.assignments
                    ]
                except InfeasiblePartitionError:
                    continue
                roles = _policy_for(dvs_io, n_stages == 1).role_configs(
                    plans, table
                )
                per_stage = tuple(
                    predict_role_lifetime_hours(
                        role, timing, deadline_s, battery, power_model, table
                    )
                    for role in roles
                )
                base_label = partition.describe() + (
                    " +DVS-I/O" if dvs_io else ""
                )
                first_death = min(per_stage)
                candidates.append(
                    Candidate(
                        description=base_label,
                        n_stages=n_stages,
                        cuts=partition.cuts,
                        dvs_during_io=dvs_io,
                        rotation=False,
                        lifetime_hours=first_death,
                        normalized_hours=first_death / n_stages,
                        per_stage_hours=per_stage,
                    )
                )
                if n_stages >= 2:
                    balanced = predict_rotation_lifetime_hours(
                        roles, timing, deadline_s, battery, power_model, table
                    )
                    candidates.append(
                        Candidate(
                            description=base_label + " +rotation",
                            n_stages=n_stages,
                            cuts=partition.cuts,
                            dvs_during_io=dvs_io,
                            rotation=True,
                            lifetime_hours=balanced,
                            normalized_hours=balanced / n_stages,
                            per_stage_hours=per_stage,
                        )
                    )
    if not candidates:
        raise ConfigurationError(
            "no feasible configuration in the design space (deadline too tight?)"
        )
    key = (
        (lambda c: c.normalized_hours)
        if objective == "normalized"
        else (lambda c: c.lifetime_hours)
    )
    return sorted(candidates, key=key, reverse=True)

