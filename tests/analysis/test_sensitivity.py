"""Calibration sensitivity analysis."""

import pytest

from repro.apps.atr.profile import PAPER_PROFILE
from repro.batch.sweep import (
    PARAMETERS,
    BatchSweepSpec,
    SweepPoint,
    batch_sweep,
    task_reference_scalar,
)
from repro.core.optimizer import predict_rotation_lifetime_hours
from repro.core.policies import BaselinePolicy, DVSDuringIOPolicy, SlowestFeasiblePolicy
from repro.core.prediction import predict_first_death
from repro.errors import ConfigurationError
from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS
from repro.hw.dvs import SA1100_TABLE
from repro.hw.link import PAPER_LINK_TIMING
from repro.hw.power import PAPER_POWER_MODEL
from repro.pipeline.schedule import plan_node
from repro.pipeline.tasks import Partition

ONE_AT_A_TIME = BatchSweepSpec(grid=3, mode="one_at_a_time")


def _single_axis(parameter: str, factor: float) -> SweepPoint:
    return SweepPoint(
        f"{parameter} x{factor}",
        tuple(factor if p == parameter else 1.0 for p in PARAMETERS),
    )


def _analytical(label, battery, power, deadline_s=2.3):
    """The analytical predictor's three key lifetimes, composed directly
    (experiment 1 baseline, scheme-1 pair first death, ideal rotation)."""
    table, timing = SA1100_TABLE, PAPER_LINK_TIMING
    single = [plan_node(Partition(PAPER_PROFILE).stage(0), timing, deadline_s, table)]
    single_roles = BaselinePolicy().role_configs(single, table)
    _, baseline_h, _ = predict_first_death(
        single_roles, timing, deadline_s, battery, power, table
    )
    pair = [
        plan_node(a, timing, deadline_s, table)
        for a in Partition(PAPER_PROFILE, (1,)).assignments
    ]
    pair_roles = DVSDuringIOPolicy(SlowestFeasiblePolicy()).role_configs(pair, table)
    _, first_death_h, _ = predict_first_death(
        pair_roles, timing, deadline_s, battery, power, table
    )
    rotating_h = predict_rotation_lifetime_hours(
        pair_roles, timing, deadline_s, battery, power, table
    )
    return (label, baseline_h, first_death_h / 2.0, rotating_h / 2.0)


class TestPerturbation:
    def test_capacity_scales(self):
        _, battery, _ = _single_axis("capacity", 1.1).task()
        assert battery.capacity_mah == pytest.approx(
            PAPER_KIBAM_PARAMETERS.capacity_mah * 1.1
        )

    def test_io_activity_changes_power_model_only(self):
        _, battery, power = _single_axis("io_activity", 0.9).task()
        assert battery == PAPER_KIBAM_PARAMETERS
        assert power.io_activity == pytest.approx(
            PAPER_POWER_MODEL.io_activity * 0.9
        )

    def test_c_clamped_below_one(self):
        _, battery, _ = _single_axis("c", 10.0).task()
        assert battery.c == 0.95

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchSweepSpec(parameters=("voltage",))


class TestScenario:
    def test_nominal_matches_paper_shape(self):
        nominal = SweepPoint("nominal", (1.0, 1.0, 1.0, 1.0))
        outcome, _ = task_reference_scalar(nominal.task())
        assert outcome.ordering_holds
        assert outcome.baseline_h == pytest.approx(6.08, abs=0.1)
        assert 1.1 < outcome.partitioning_rnorm < 1.3
        assert 1.5 < outcome.rotation_rnorm < 1.75

    def test_scalar_reference_matches_analytical_predictor(self):
        """The sweep's cells are the predictor's: every one-at-a-time
        point equals predict_first_death / predict_rotation_lifetime_hours
        composed directly, bit for bit."""
        points = ONE_AT_A_TIME.points()
        assert len(points) == 9
        for point in points:
            task = point.task()
            outcome, _ = task_reference_scalar(task)
            got = (
                outcome.label,
                outcome.baseline_h,
                outcome.partitioned_norm_h,
                outcome.rotating_norm_h,
            )
            assert got == _analytical(*task), point.label

    def test_sweep_shape(self):
        outcomes = batch_sweep(ONE_AT_A_TIME).outcomes
        # nominal + a -10% and a +10% change per parameter
        assert len(outcomes) == 1 + 2 * 4
        assert outcomes[0].label == "nominal"
        assert all(
            o.label.endswith(("-10%", "+10%")) for o in outcomes[1:]
        )
