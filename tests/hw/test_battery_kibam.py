"""KiBaM battery: closed form, death prediction, paper phenomena."""

import math

import pytest

from repro.errors import BatteryError
from repro.hw.battery import KiBaM, KiBaMParameters
from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS
from repro.units import mah_to_mas


PARAMS = KiBaMParameters(capacity_mah=100.0, c=0.3, k_prime_per_hour=1.0)


@pytest.fixture
def cell():
    return KiBaM(PARAMS)


class TestParameters:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(capacity_mah=0.0, c=0.3, k_prime_per_hour=1.0),
            dict(capacity_mah=100.0, c=0.0, k_prime_per_hour=1.0),
            dict(capacity_mah=100.0, c=1.0, k_prime_per_hour=1.0),
            dict(capacity_mah=100.0, c=0.3, k_prime_per_hour=0.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(BatteryError):
            KiBaMParameters(**kwargs)

    def test_rate_constant_units(self):
        p = KiBaMParameters(100.0, 0.3, 3600.0)
        assert p.k_prime_per_second == pytest.approx(1.0)


class TestInitialState:
    def test_wells_split_by_c(self, cell):
        total = mah_to_mas(100.0)
        assert cell.available_mas == pytest.approx(0.3 * total)
        assert cell.bound_mas == pytest.approx(0.7 * total)

    def test_full_charge_fraction(self, cell):
        assert cell.charge_fraction() == pytest.approx(1.0)

    def test_not_dead(self, cell):
        assert not cell.is_dead


class TestConservation:
    def test_charge_conserved_exactly(self, cell):
        cell.draw(50.0, 1800.0)
        total = cell.available_mas + cell.bound_mas
        assert total == pytest.approx(mah_to_mas(100.0) - 50.0 * 1800.0, rel=1e-12)

    def test_delivered_tracks_draw(self, cell):
        cell.draw(40.0, 3600.0)
        assert cell.delivered_mah == pytest.approx(40.0)

    def test_zero_duration_noop(self, cell):
        y1 = cell.available_mas
        cell.draw(50.0, 0.0)
        assert cell.available_mas == y1

    def test_many_small_steps_equal_one_big_step(self):
        a, b = KiBaM(PARAMS), KiBaM(PARAMS)
        a.draw(30.0, 3600.0)
        for _ in range(3600):
            b.draw(30.0, 1.0)
        assert a.available_mas == pytest.approx(b.available_mas, rel=1e-6)
        assert a.bound_mas == pytest.approx(b.bound_mas, rel=1e-6)


class TestRecoveryEffect:
    def test_rest_recovers_available_charge(self, cell):
        cell.draw(100.0, 600.0)
        before = cell.available_mas
        cell.draw(0.0, 1800.0)
        assert cell.available_mas > before

    def test_rest_conserves_total(self, cell):
        cell.draw(100.0, 600.0)
        total_before = cell.available_mas + cell.bound_mas
        cell.draw(0.0, 1800.0)
        assert cell.available_mas + cell.bound_mas == pytest.approx(total_before)

    def test_rest_approaches_equilibrium(self, cell):
        cell.draw(100.0, 600.0)
        cell.draw(0.0, 1e7)  # very long rest
        total = cell.available_mas + cell.bound_mas
        assert cell.available_mas == pytest.approx(PARAMS.c * total, rel=1e-6)

    def test_duty_cycle_delivers_more_than_continuous(self):
        """The paper's recovery-effect claim: resting stretches capacity."""
        continuous, pulsed = KiBaM(PARAMS), KiBaM(PARAMS)
        t_cont = continuous.time_to_death(120.0)
        # Pulsed: same 120 mA but with rests half the time.
        t, delivered = 0.0, 0.0
        while True:
            ttd = pulsed.time_to_death(120.0)
            if ttd <= 60.0:
                delivered += 120.0 * ttd
                break
            pulsed.draw(120.0, 60.0)
            delivered += 120.0 * 60.0
            pulsed.draw(0.0, 60.0)
        assert delivered > 120.0 * t_cont


class TestRateCapacityEffect:
    def test_high_rate_delivers_less(self):
        slow, fast = KiBaM(PARAMS), KiBaM(PARAMS)
        t_slow = slow.time_to_death(20.0)
        t_fast = fast.time_to_death(200.0)
        assert 20.0 * t_slow > 200.0 * t_fast

    def test_death_leaves_bound_charge_stranded(self, cell):
        ttd = cell.time_to_death(300.0)
        cell.draw(300.0, ttd)
        assert cell.available_mas == pytest.approx(0.0, abs=1e-3)
        assert cell.bound_mas > 0.0


class TestDeathPrediction:
    def test_zero_current_never_dies(self, cell):
        assert cell.time_to_death(0.0) == float("inf")

    def test_dead_cell_reports_zero(self, cell):
        ttd = cell.time_to_death(300.0)
        cell.draw(300.0, ttd)
        assert cell.time_to_death(10.0) == 0.0
        assert cell.is_dead

    def test_prediction_is_exact(self, cell):
        ttd = cell.time_to_death(150.0)
        y1, _ = cell.preview(150.0, ttd)
        assert y1 == pytest.approx(0.0, abs=1e-3)

    def test_monotone_in_current(self, cell):
        t_low = cell.time_to_death(50.0)
        t_high = cell.time_to_death(100.0)
        assert t_high < t_low

    def test_lower_bound_is_lower(self, cell):
        for current in (20.0, 80.0, 300.0):
            assert cell.time_to_death_lower_bound(current) <= cell.time_to_death(
                current
            ) * (1 + 1e-12)

    def test_lower_bound_zero_current(self, cell):
        assert cell.time_to_death_lower_bound(0.0) == float("inf")

    def test_negative_current_rejected(self, cell):
        with pytest.raises(BatteryError):
            cell.time_to_death(-1.0)
        with pytest.raises(BatteryError):
            cell.draw(-1.0, 1.0)

    def test_overdraw_rejected(self, cell):
        ttd = cell.time_to_death(300.0)
        with pytest.raises(BatteryError):
            cell.draw(300.0, ttd * 2)


class TestSmallStepStability:
    def test_tiny_steps_stable(self, cell):
        """The series branch for k'*dt << 1 must agree with the exp branch."""
        a, b = KiBaM(PARAMS), KiBaM(PARAMS)
        a.draw(100.0, 1e-4)  # series path
        n1, n2 = b.preview(100.0, 1e-4)
        assert a.available_mas == pytest.approx(n1, rel=1e-9)
        # and charge is conserved even at this scale
        assert a.available_mas + a.bound_mas == pytest.approx(
            mah_to_mas(100.0) - 100.0 * 1e-4, rel=1e-12
        )


class TestPreviewAndReset:
    def test_preview_does_not_mutate(self, cell):
        y1, y2 = cell.available_mas, cell.bound_mas
        cell.preview(100.0, 500.0)
        assert (cell.available_mas, cell.bound_mas) == (y1, y2)

    def test_reset_restores_full(self, cell):
        cell.draw(100.0, 1000.0)
        cell.reset()
        assert cell.charge_fraction() == pytest.approx(1.0)
        assert cell.delivered_mah == 0.0


class TestPaperParameters:
    def test_stored_parameters_valid(self):
        cell = KiBaM(PAPER_KIBAM_PARAMETERS)
        # Continuous full-speed compute (130 mA) must last ~3.4 h.
        assert cell.time_to_death(130.0) / 3600.0 == pytest.approx(3.4, abs=0.1)


class TestFastPath:
    """The fused draw() and advance_cycles() against reference stepping."""

    CYCLE = [(130.0, 1.1), (45.0, 1.2), (30.0, 0.7)]

    def test_draw_bit_identical_to_step(self):
        cell = KiBaM(PARAMS)
        steps = 0
        while True:
            done = False
            for current, dt in self.CYCLE:
                if cell.time_to_death_lower_bound(current) <= dt * 3:
                    done = True
                    break
                expected = cell.preview(current, dt)
                cell.draw(current, dt)
                assert (cell.available_mas, cell.bound_mas) == expected
                steps += 1
            if done:
                break
        assert steps > 100  # the loop actually exercised the fast path

    def test_delivered_mah_matches_reference_full_discharge(self):
        from repro.hw.battery.base import Battery

        def discharge(cell, step):
            """Run the duty cycle to death, truncating the last segment."""
            while not cell.is_dead:
                for current, dt in self.CYCLE:
                    ttd = cell.time_to_death(current)
                    step(cell, current, min(dt, ttd))
                    if cell.is_dead:
                        return

        fast = KiBaM(PARAMS)
        discharge(fast, KiBaM.draw)        # fused fast path
        ref = KiBaM(PARAMS)
        discharge(ref, Battery.draw)       # generic reference path
        assert ref.delivered_mah > 0
        rel = abs(fast.delivered_mah - ref.delivered_mah) / ref.delivered_mah
        assert rel < 1e-3  # acceptance: < 0.1 % over a full discharge

    def test_advance_cycles_matches_sequential_draws(self):
        jumped = KiBaM(PARAMS)
        walked = KiBaM(PARAMS)
        n = 200
        jumped.advance_cycles(self.CYCLE, n)
        for _ in range(n):
            for current, dt in self.CYCLE:
                walked.draw(current, dt)
        assert jumped.available_mas == pytest.approx(walked.available_mas, rel=1e-9)
        assert jumped.bound_mas == pytest.approx(walked.bound_mas, rel=1e-9)
        assert jumped.delivered_mah == pytest.approx(walked.delivered_mah, rel=1e-12)

    def _whole_cycles_to_death(self) -> int:
        """True whole cycles a fresh cell completes before it dies."""
        cell = KiBaM(PARAMS)
        cycles = 0
        while True:
            for current, dt in self.CYCLE:
                if cell.time_to_death(current) <= dt:
                    return cycles
                cell.draw(current, dt)
            cycles += 1

    def test_advance_cycles_rejects_unsafe_jump(self):
        cell = KiBaM(PARAMS)
        before = (cell.available_mas, cell.bound_mas, cell.delivered_mah)
        k = self._whole_cycles_to_death()
        # Cycle K+1 kills the cell, so the state after K cycles holds
        # less than one cycle's drain: both jumps can cross death.
        for n in (k, k + 10):
            with pytest.raises(BatteryError):
                cell.advance_cycles(self.CYCLE, n)
            assert (cell.available_mas, cell.bound_mas, cell.delivered_mah) == before

    def test_safe_cycles_reaches_the_endgame_in_one_jump(self):
        k = self._whole_cycles_to_death()
        cell = KiBaM(PARAMS)
        n = cell.safe_cycles(self.CYCLE, 2, k + 10)
        # The recovery-aware bound stops within a few cycles of death,
        # far past the no-recovery cap y1 / drain.
        drain = sum(i * dt for i, dt in self.CYCLE)
        assert int(cell.available_mas / drain) < n < k
        assert k - n <= 3
        cell.advance_cycles(self.CYCLE, n)
        assert cell.available_mas > 2 * drain
        assert cell.safe_cycles(self.CYCLE, 2, k) == 0

    def test_safe_cycles_respects_limit_and_dead_cells(self):
        cell = KiBaM(PARAMS)
        assert cell.safe_cycles(self.CYCLE, 2, 17) == 17
        assert cell.safe_cycles(self.CYCLE, 2, 0) == 0
        assert cell.safe_cycles([], 2, 17) == 0
        cell.draw(1000.0, cell.time_to_death(1000.0))
        assert cell.safe_cycles(self.CYCLE, 2, 17) == 0

    def test_advance_cycles_rejects_negative_and_dead(self):
        cell = KiBaM(PARAMS)
        with pytest.raises(BatteryError):
            cell.advance_cycles(self.CYCLE, -1)
        cell.draw(1000.0, cell.time_to_death(1000.0))  # kill it
        assert cell.is_dead
        with pytest.raises(BatteryError):
            cell.advance_cycles(self.CYCLE, 1)

    def test_advance_zero_cycles_noop(self):
        cell = KiBaM(PARAMS)
        before = (cell.available_mas, cell.bound_mas, cell.delivered_mah)
        cell.advance_cycles(self.CYCLE, 0)
        cell.advance_cycles([], 5)
        assert (cell.available_mas, cell.bound_mas, cell.delivered_mah) == before

    def test_cycle_map_drain_and_conservation(self):
        cell = KiBaM(PARAMS)
        (a11, a12, a21, a22, _, _), drain = cell.cycle_map(self.CYCLE)
        assert drain == pytest.approx(sum(i * dt for i, dt in self.CYCLE))
        # Charge conservation: with zero current the map's columns sum
        # to 1 (whatever leaves one well enters the other).
        (z11, z12, z21, z22, zb1, zb2), zdrain = cell.cycle_map(
            [(0.0, dt) for _, dt in self.CYCLE]
        )
        assert zdrain == 0.0
        assert zb1 == zb2 == 0.0
        assert z11 + z21 == pytest.approx(1.0)
        assert z12 + z22 == pytest.approx(1.0)

    def test_cycle_map_kept_for_the_same_cycle(self):
        # safe_cycles and then advance_cycles ask for the same cycle: the
        # second call hands back the first call's map, composing nothing.
        cell = KiBaM(PARAMS)
        amap, drain = cell.cycle_map(self.CYCLE)
        again, again_drain = cell.cycle_map(tuple(self.CYCLE))
        assert again is amap and again_drain == drain
        other, _ = cell.cycle_map(self.CYCLE[:2])
        assert other != amap
        assert other == KiBaM(PARAMS).cycle_map(self.CYCLE[:2])[0]

    def test_cycle_map_rejects_negative(self):
        cell = KiBaM(PARAMS)
        with pytest.raises(BatteryError):
            cell.cycle_map([(-1.0, 1.0)])

    def test_factor_cache_bounded(self):
        cell = KiBaM(PARAMS)
        for i in range(KiBaM._FACTOR_CACHE_MAX + 10):
            cell._dt_factors(1.0 + i * 1e-7)
        assert len(cell._factors) <= KiBaM._FACTOR_CACHE_MAX
