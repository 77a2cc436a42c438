"""Cohort stepper vs the scalar reference loop: bit-identity."""

import math
import random

import numpy as np
import pytest

from repro.batch import CohortCell, CohortStepper, KiBaMCohort
from repro.errors import BatteryError
from repro.hw.battery.kibam import (
    KiBaM,
    KiBaMParameters,
    PAPER_KIBAM_PARAMETERS,
    lifetime_seconds,
)


def random_cells(n, seed):
    """Random (parameters, ragged cycle) rows spanning the model family."""
    rng = random.Random(seed)
    cells = []
    for _ in range(n):
        params = KiBaMParameters(
            capacity_mah=PAPER_KIBAM_PARAMETERS.capacity_mah * rng.uniform(0.5, 1.5),
            c=min(0.95, PAPER_KIBAM_PARAMETERS.c * rng.uniform(0.5, 2.0)),
            k_prime_per_hour=PAPER_KIBAM_PARAMETERS.k_prime_per_hour
            * rng.uniform(0.5, 2.0),
        )
        cycle = tuple(
            (rng.uniform(20.0, 400.0), rng.uniform(0.05, 3.0))
            for _ in range(rng.randint(1, 5))
        )
        cells.append(CohortCell(params, cycle))
    return cells


def edge_cells(n, seed):
    """Small cells whose cycles hit the closed form's edge cases.

    Segments of 0.1-5 ms take the small-``k'dt`` series branch of the
    factors; zero-current and zero-duration segments sit beside them.
    Every cycle keeps one segment that draws charge, so each cell dies.
    """
    rng = random.Random(seed)
    cells = []
    for _ in range(n):
        params = KiBaMParameters(
            capacity_mah=PAPER_KIBAM_PARAMETERS.capacity_mah * rng.uniform(0.001, 0.01),
            c=min(0.95, PAPER_KIBAM_PARAMETERS.c * rng.uniform(0.5, 2.0)),
            k_prime_per_hour=PAPER_KIBAM_PARAMETERS.k_prime_per_hour
            * rng.uniform(0.5, 2.0),
        )
        cycle = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(4)
            if kind == 0:
                cycle.append((rng.uniform(20.0, 400.0), rng.uniform(1e-4, 5e-3)))
            elif kind == 1:
                cycle.append((0.0, rng.uniform(0.05, 3.0)))
            elif kind == 2:
                cycle.append((rng.uniform(20.0, 400.0), 0.0))
            else:
                cycle.append((rng.uniform(20.0, 400.0), rng.uniform(0.05, 3.0)))
        if not any(current > 0.0 and dt > 0.0 for current, dt in cycle):
            cycle.append((rng.uniform(20.0, 400.0), rng.uniform(1e-4, 5e-3)))
        cells.append(CohortCell(params, tuple(cycle)))
    return cells


class TestCohortCell:
    def test_rejects_empty_cycle(self):
        with pytest.raises(BatteryError):
            CohortCell(PAPER_KIBAM_PARAMETERS, ())

    def test_rejects_negative_current(self):
        with pytest.raises(BatteryError):
            CohortCell(PAPER_KIBAM_PARAMETERS, ((-1.0, 1.0),))

    def test_rejects_zero_total_duration(self):
        with pytest.raises(BatteryError):
            CohortCell(PAPER_KIBAM_PARAMETERS, ((100.0, 0.0),))


class TestKiBaMCohort:
    def test_rejects_empty_cohort(self):
        with pytest.raises(BatteryError):
            KiBaMCohort([])

    def test_initial_wells_match_scalar(self):
        cells = random_cells(8, seed=3)
        cohort = KiBaMCohort(cells)
        for i, cell in enumerate(cells):
            scalar = KiBaM(cell.params)
            assert cohort.y1[i] == scalar.available_mas
            assert cohort.y2[i] == scalar.bound_mas

    def test_cycle_map_matches_scalar(self):
        cells = random_cells(8, seed=4)
        cohort = KiBaMCohort(cells)
        for i, cell in enumerate(cells):
            coeffs, drain = KiBaM(cell.params).cycle_map(cell.cycle)
            got = (
                cohort.a11[i], cohort.a12[i], cohort.a21[i],
                cohort.a22[i], cohort.b1[i], cohort.b2[i],
            )
            # The scalar map composes with math.exp factors and plain
            # float arithmetic; the cohort must land on the same bits.
            assert got == coeffs
            assert cohort.drain[i] == drain

    def test_advance_matches_scalar_advance_cycles(self):
        cells = random_cells(6, seed=5)
        cohort = KiBaMCohort(cells)
        rows = np.arange(len(cells))
        counts = np.array([1, 2, 7, 30, 101, 255])
        cohort.advance(rows, counts)
        for i, cell in enumerate(cells):
            scalar = KiBaM(cell.params)
            scalar.advance_cycles(cell.cycle, int(counts[i]))
            assert cohort.y1[i] == scalar.available_mas
            assert cohort.y2[i] == scalar.bound_mas
            assert cohort.delivered_mas[i] == scalar._delivered_mas

    def test_advance_guard_refuses_crossing_death(self):
        cell = CohortCell(PAPER_KIBAM_PARAMETERS, ((200.0, 1.0),))
        cohort = KiBaMCohort([cell])
        with pytest.raises(BatteryError, match="margin"):
            cohort.advance(np.array([0]), np.array([10_000_000]))

    def test_scalar_cell_round_trips_state(self):
        cells = random_cells(3, seed=6)
        cohort = KiBaMCohort(cells)
        cohort.advance(np.arange(3), np.array([5, 5, 5]))
        for i in range(3):
            clone = cohort.scalar_cell(i)
            assert clone.available_mas == cohort.y1[i]
            assert clone.bound_mas == cohort.y2[i]
            assert clone._delivered_mas == cohort.delivered_mas[i]


class TestStepperEquivalence:
    LIMIT_S = 400.0 * 3600.0

    @pytest.mark.parametrize(
        "draw",
        [lambda: random_cells(80, seed=42), lambda: edge_cells(200, seed=43)],
        ids=["paper-range", "series-and-zero"],
    )
    def test_bitwise_identical_to_scalar_reference(self, draw):
        """Death times AND completed-cycle counts match bit for bit."""
        cells = draw()
        cohort = KiBaMCohort(cells)
        result = CohortStepper(cohort, self.LIMIT_S).run()
        for i, cell in enumerate(cells):
            death_s, cycles = lifetime_seconds(
                KiBaM(cell.params), list(cell.cycle), self.LIMIT_S
            )
            assert result.cycles[i] == cycles, f"row {i}: frame counts differ"
            assert result.death_s[i] == death_s, f"row {i}: death times differ"

    def test_horizon_survivors_report_inf(self):
        # A tiny current cannot kill the paper cell within one hour.
        cell = CohortCell(PAPER_KIBAM_PARAMETERS, ((0.5, 10.0),))
        cohort = KiBaMCohort([cell])
        result = CohortStepper(cohort, 3600.0).run()
        assert math.isinf(result.death_s[0])
        death_s, cycles = lifetime_seconds(
            KiBaM(cell.params), [(0.5, 10.0)], 3600.0
        )
        assert math.isinf(death_s)
        assert result.cycles[0] == cycles

    def test_ragged_cycles_share_one_cohort(self):
        """Mixed 1..5-segment rows do not perturb each other."""
        cells = random_cells(12, seed=7)
        together = CohortStepper(KiBaMCohort(cells), self.LIMIT_S).run()
        for i, cell in enumerate(cells):
            alone = CohortStepper(KiBaMCohort([cell]), self.LIMIT_S).run()
            assert together.death_s[i] == alone.death_s[0]
            assert together.cycles[i] == alone.cycles[0]

    def test_rejects_nonpositive_horizon(self):
        cohort = KiBaMCohort([CohortCell(PAPER_KIBAM_PARAMETERS, ((100.0, 1.0),))])
        with pytest.raises(BatteryError):
            CohortStepper(cohort, 0.0)
