"""One root solve per death: the end-of-segment sign test gates Brent.

The scalar reference walk and the cohort stepper both call
``KiBaM.time_to_death`` only for a cell that is already empty or whose
closed-form ``y1`` at the segment end is ``<= 0`` — so each cell pays at
most one Brent solve, on the segment that kills it, while the decisions
stay bit-identical between the two paths.
"""

import pytest

from repro.batch.sweep import BatchSweepSpec, batch_sweep, verify_sample
from repro.core.calibration import paper_anchors, predicted_lifetime_hours
from repro.hw.battery.kibam import KiBaM, PAPER_KIBAM_PARAMETERS
from repro.hw.power import PAPER_POWER_MODEL


@pytest.fixture(scope="module")
def grid3():
    return batch_sweep(BatchSweepSpec(grid=3))


def test_cohort_solves_at_most_once_per_cell(grid3):
    stats = grid3.stats
    assert stats.cells == 4 * 81
    assert 0 < stats.root_solves <= stats.cells


def test_every_config_matches_the_scalar_reference(grid3):
    report = verify_sample(grid3, sample=len(grid3.points))
    assert report.checked == len(grid3.points)
    assert report.frames_identical
    assert report.max_rel_err == 0.0
    assert report.mismatches == ()


@pytest.mark.parametrize("anchor", paper_anchors(), ids=lambda a: a.label)
def test_scalar_walk_solves_at_most_once(monkeypatch, anchor):
    calls = []
    solve = KiBaM.time_to_death

    def counting(self, current_ma):
        calls.append(current_ma)
        return solve(self, current_ma)

    monkeypatch.setattr(KiBaM, "time_to_death", counting)
    hours = predicted_lifetime_hours(anchor, PAPER_KIBAM_PARAMETERS, PAPER_POWER_MODEL)
    assert hours > 0.0
    assert len(calls) <= 1
