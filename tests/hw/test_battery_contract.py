"""The Battery interface contract, enforced across every model.

Each battery model has its own physics; the simulator only relies on
the shared contract. This suite runs the same checks over all four so
a new model cannot silently break an engine assumption.
"""

import pytest

from repro.hw.battery import (
    KiBaM,
    KiBaMParameters,
    LinearBattery,
    PeukertBattery,
)

CAPACITY = 60.0


def fresh(kind):
    if kind == "kibam":
        return KiBaM(KiBaMParameters(CAPACITY, c=0.3, k_prime_per_hour=1.0))
    if kind == "linear":
        return LinearBattery(CAPACITY)
    if kind == "peukert":
        return PeukertBattery(CAPACITY, reference_ma=60.0, exponent=1.2)
    raise ValueError(kind)


MODELS = ["kibam", "linear", "peukert"]


@pytest.mark.parametrize("kind", MODELS)
class TestContract:
    def test_fresh_cell_full_and_alive(self, kind):
        cell = fresh(kind)
        assert cell.charge_fraction() == pytest.approx(1.0)
        assert not cell.is_dead
        assert cell.delivered_mah == 0.0

    def test_time_to_death_finite_under_load(self, kind):
        assert 0 < fresh(kind).time_to_death(100.0) < float("inf")

    def test_zero_current_sustainable(self, kind):
        assert fresh(kind).time_to_death(0.0) == float("inf")

    def test_lower_bound_never_exceeds_exact(self, kind):
        cell = fresh(kind)
        for current in (5.0, 50.0, 300.0):
            assert cell.time_to_death_lower_bound(current) <= cell.time_to_death(
                current
            ) * (1 + 1e-9)

    def test_draw_to_predicted_death_kills(self, kind):
        cell = fresh(kind)
        ttd = cell.time_to_death(150.0)
        cell.draw(150.0, ttd)
        assert cell.is_dead
        assert cell.time_to_death(150.0) == 0.0

    def test_overdraw_rejected(self, kind):
        from repro.errors import BatteryError

        cell = fresh(kind)
        ttd = cell.time_to_death(150.0)
        with pytest.raises(BatteryError):
            cell.draw(150.0, 2.5 * ttd)

    def test_negative_inputs_rejected(self, kind):
        from repro.errors import BatteryError

        cell = fresh(kind)
        with pytest.raises(BatteryError):
            cell.draw(-1.0, 1.0)
        with pytest.raises(BatteryError):
            cell.draw(1.0, -1.0)
        with pytest.raises(BatteryError):
            cell.time_to_death(-5.0)

    def test_delivered_charge_accounting(self, kind):
        cell = fresh(kind)
        cell.draw(30.0, 600.0)
        cell.draw(0.0, 600.0)
        cell.draw(10.0, 300.0)
        assert cell.delivered_mah == pytest.approx((30 * 600 + 10 * 300) / 3600.0)

    def test_reset_restores_factory_state(self, kind):
        cell = fresh(kind)
        cell.draw(100.0, 60.0)
        cell.reset()
        assert cell.charge_fraction() == pytest.approx(1.0)
        assert cell.delivered_mah == 0.0
        assert not cell.is_dead

    def test_lifetime_monotone_in_current(self, kind):
        cell = fresh(kind)
        lifetimes = [cell.time_to_death(i) for i in (20.0, 60.0, 180.0)]
        assert lifetimes == sorted(lifetimes, reverse=True)

    def test_runs_inside_the_node_state_machine(self, kind):
        """Every model must drive the node's death-event machinery."""
        from repro.hw import ItsyNode, SA1100_TABLE
        from repro.hw.power import PAPER_POWER_MODEL
        from repro.sim import Simulator

        sim = Simulator()
        node = ItsyNode(sim, "n", fresh(kind), PAPER_POWER_MODEL, SA1100_TABLE)

        def forever(node):
            while True:
                yield from node.compute(1.0, SA1100_TABLE.max)
                yield from node.idle_for(0.5)

        node.spawn(forever(node))
        sim.run()
        assert node.is_dead
        assert node.death_time_s is not None
